module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Vec = Jp_util.Vec

let join ?(domains = 1) ?guard ?cancel ?cache r =
  Jp_obs.span "scj.mm_join" (fun () ->
      let memo =
        Option.map (fun c -> Jp_cache.two_path_memo c ~r ~s:r) cache
      in
      let counted =
        Joinproj.Two_path.project_counts ~domains ?guard ?cancel ?memo ~r ~s:r
          ()
      in
      Jp_util.Cancel.check_opt cancel;
      Jp_obs.span "scj.containment_filter" (fun () ->
          let rows =
            Array.init (Relation.src_count r) (fun _ -> Vec.create ~capacity:0 ())
          in
          Jp_relation.Counted_pairs.iter
            (fun a b k ->
              if a <> b && k = Relation.deg_src r a then Vec.push rows.(a) b)
            counted;
          Scj_common.rows_to_pairs rows))
