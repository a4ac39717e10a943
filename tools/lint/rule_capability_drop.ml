module G = Lint_callgraph

let id = "capability-drop"

(* A function that accepts a capability hook must hand it to every
   callee that can carry it: the contract that an absent capability
   leaves the same results, the same work counters and end-to-end times
   within perfbench's bound only composes if the option reaches the
   leaves.  A site is a drop
   when the compiler itself had to fill the callee's optional with a
   ghost [None] — an explicit [?cap:None] is a deliberate choice and
   stays silent, as does a partial application that never reaches the
   capability parameter. *)
let lib_fn (f : G.fn) = match f.G.f_kind with Lint_ctx.Lib _ -> true | _ -> false

let rule =
  Lint_global.v ~id
    ~doc:
      "a function accepting ?guard/?cancel/?cache/?memo/?tile must forward it \
       to callees that accept the same capability (the absent-capability \
       guarantee only composes end to end)"
    (fun p ->
      List.concat_map
        (fun (f : G.fn) ->
          if not (lib_fn f) then []
          else
            List.concat_map
              (fun (c : G.call) ->
                match G.resolve p ~caller:f c.G.c_callee with
                | None -> []
                | Some callee ->
                  List.filter_map
                    (fun cap ->
                      if
                        List.mem cap f.G.f_caps
                        && List.mem cap callee.G.f_caps
                        && List.mem cap c.G.c_dropped
                      then
                        Some
                          (Lint_global.finding ~rule:id ~loc:c.G.c_loc
                             ~file:f.G.f_file
                             ~chain:[ f.G.f_name; callee.G.f_name ]
                             ~message:
                               (Printf.sprintf
                                  "%s accepts ?%s but this call to %s (which \
                                   also accepts it) does not forward it"
                                  f.G.f_name (G.cap_label cap) callee.G.f_name)
                             ~hint:
                               (Printf.sprintf
                                  "forward the hook (?%s) so the capability \
                                   reaches the leaves; pass ?%s:None \
                                   explicitly if the drop is deliberate"
                                  (G.cap_label cap) (G.cap_label cap))
                             ~allow:c.G.c_allow ())
                      else None)
                    G.all_caps)
              f.G.f_calls)
        p.G.p_order)
