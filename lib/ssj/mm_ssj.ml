module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs

let join_counted ?(domains = 1) ?guard ?cancel ?cache r =
  Jp_obs.span "ssj.mm_counted" (fun () ->
      let memo =
        Option.map (fun c -> Jp_cache.two_path_memo c ~r ~s:r) cache
      in
      Joinproj.Two_path.project_counts ~domains ?guard ?cancel ?memo ~r ~s:r ())

let join ?(domains = 1) ?guard ?cancel ?cache ~c r =
  if c < 1 then invalid_arg "Mm_ssj.join: c must be >= 1";
  Jp_obs.span "ssj.mm_join" (fun () ->
      let counted = join_counted ~domains ?guard ?cancel ?cache r in
      Jp_util.Cancel.check_opt cancel;
      Jp_obs.span "ssj.threshold" (fun () -> Common.upper_pairs counted ~c))
