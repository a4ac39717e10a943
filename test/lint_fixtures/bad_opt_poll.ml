(* positive fixture: hot-poll — an optional token polled per tuple
   (depth 2) through Cancel.check_opt *)
let scan cancel (rows : int array array) =
  Array.iter
    (fun row ->
      Array.iter
        (fun x ->
          Jp_util.Cancel.check_opt cancel;
          ignore x)
        row)
    rows
