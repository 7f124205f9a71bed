(* Order statistics over timing samples.

   Percentiles are nearest-rank and given in per mille, so the rank is
   exact integer arithmetic: p99 over 2000 samples is the 1980th smallest,
   with 20 samples beyond it. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let rank ~n ~permille = max 1 (((permille * n) + 999) / 1000)

let percentile xs ~permille =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if permille < 1 || permille > 1000 then
    invalid_arg "Stats.percentile: permille outside 1..1000";
  a.(rank ~n ~permille - 1)

let ladder = [ 999; 990; 950; 900; 750; 500 ]
let min_beyond = 10

let tail_permille n =
  List.find_opt (fun permille -> n - rank ~n ~permille >= min_beyond) ladder

let tail xs =
  match tail_permille (List.length xs) with
  | Some permille -> (percentile xs ~permille, Some permille)
  | None -> (median xs, None)
