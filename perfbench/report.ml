module Json = Jp_obs.Json

type metric = { name : string; value : float; unit_ : string }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let to_json t =
  Json.Obj
    [
      ("correct", Json.Bool t.correct);
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj
                   [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
               ))
             t.metrics) );
    ]

let to_line t = Json.to_string (to_json t)

let of_line line =
  let ( let* ) = Result.bind in
  let field k conv j =
    match Option.bind (Json.member k j) conv with
    | Some v -> Ok v
    | None -> Error ("missing or malformed field " ^ k)
  in
  let* j = Json.of_string line in
  let* correct = field "correct" (function Json.Bool b -> Some b | _ -> None) j in
  let* attempted = field "attempted" Json.to_int_opt j in
  let* failed = field "failed" Json.to_int_opt j in
  let* metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj fields) ->
      List.fold_right
        (fun (name, m) acc ->
          let* acc = acc in
          let* value = field "value" Json.to_float_opt m in
          let* unit_ = field "unit" Json.to_string_opt m in
          Ok ({ name; value; unit_ } :: acc))
        fields (Ok [])
    | _ -> Error "missing or malformed field metrics"
  in
  Ok { correct; attempted; failed; metrics }

let equal a b =
  a.correct = b.correct && a.attempted = b.attempted && a.failed = b.failed
  && List.equal
       (fun x y ->
         String.equal x.name y.name
         && Float.equal x.value y.value
         && String.equal x.unit_ y.unit_)
       a.metrics b.metrics
