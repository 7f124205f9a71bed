open Perfbench_core

let test_name_grammar () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Names.valid_name n))
    [ "setup_s"; "sim.engine.events"; "9lives"; "a-b_c.d"; String.make 64 'x' ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Names.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "é"; String.make 65 'x' ];
  List.iter
    (fun u -> Alcotest.(check bool) u true (Names.valid_unit u))
    [ "ms"; "1/s"; "%"; "count"; "MB" ];
  List.iter
    (fun u -> Alcotest.(check bool) u false (Names.valid_unit u))
    [ ""; "m s"; String.make 17 'u'; "ms*" ]

let test_duplicates_rejected () =
  match Names.check [ ("a", "s"); ("b", "s"); ("a", "ms") ] with
  | Ok () -> Alcotest.fail "duplicate accepted"
  | Error problems ->
      Alcotest.(check (list string)) "problem" [ "duplicate metric name a" ] problems

let test_catalogue_valid () =
  let check what metrics =
    match Names.check metrics with
    | Ok () -> ()
    | Error problems -> Alcotest.failf "%s: %s" what (String.concat "; " problems)
  in
  check "end_to_end" Catalogue.end_to_end;
  check "per_layer" Catalogue.per_layer;
  check "workloads" (List.map (fun w -> (w, "count")) Catalogue.workloads);
  Alcotest.(check bool) "end_to_end size" true
    (List.length Catalogue.end_to_end <= 16);
  Alcotest.(check bool) "per_layer size" true
    (List.length Catalogue.per_layer <= 128);
  Alcotest.(check bool) "setup_s is end to end" true
    (List.assoc_opt "setup_s" Catalogue.end_to_end = Some "s")

let fp = [ ("committed", 10); ("events", 300); ("makespan", 77) ]

let test_fingerprint_equal () =
  Alcotest.(check (option string)) "same" None (Fingerprint.diff fp fp)

let test_fingerprint_value () =
  Alcotest.(check (option string))
    "changed value" (Some "events: 300 vs 301")
    (Fingerprint.diff fp [ ("committed", 10); ("events", 301); ("makespan", 77) ])

let test_fingerprint_shape () =
  Alcotest.(check (option string))
    "missing field" (Some "field makespan present once")
    (Fingerprint.diff fp [ ("committed", 10); ("events", 300) ]);
  Alcotest.(check (option string))
    "reordered" (Some "field events vs makespan")
    (Fingerprint.diff fp [ ("committed", 10); ("makespan", 77); ("events", 300) ])

let test_percentile_rule () =
  let tail n = Stats.tail_permille n in
  Alcotest.(check (option int)) "2000 samples: p99 (20 beyond)" (Some 990) (tail 2000);
  Alcotest.(check (option int)) "1000 samples: p99 (10 beyond)" (Some 990) (tail 1000);
  Alcotest.(check (option int)) "999 samples: p95" (Some 950) (tail 999);
  Alcotest.(check (option int)) "10000 samples: p99.9" (Some 999) (tail 10000);
  Alcotest.(check (option int)) "20 samples: p50" (Some 500) (tail 20);
  Alcotest.(check (option int)) "19 samples: none" None (tail 19)

let test_percentile_values () =
  let xs = List.init 2000 (fun i -> float_of_int (2000 - i)) in
  Alcotest.(check (float 0.)) "p99 nearest rank" 1980. (Stats.percentile xs ~permille:990);
  Alcotest.(check (float 0.)) "p50" 1000. (Stats.percentile xs ~permille:500);
  Alcotest.(check (float 0.)) "median even" 1000.5 (Stats.median xs);
  Alcotest.(check (pair (float 0.) (option int))) "tail" (1980., Some 990) (Stats.tail xs);
  Alcotest.(check (pair (float 0.) (option int)))
    "no tail falls back to the median" (2., None) (Stats.tail [ 3.; 1.; 2. ])

let () =
  Alcotest.run "perfbench"
    [
      ( "names",
        [
          Alcotest.test_case "grammar" `Quick test_name_grammar;
          Alcotest.test_case "duplicates" `Quick test_duplicates_rejected;
          Alcotest.test_case "catalogue" `Quick test_catalogue_valid;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "equal" `Quick test_fingerprint_equal;
          Alcotest.test_case "value" `Quick test_fingerprint_value;
          Alcotest.test_case "shape" `Quick test_fingerprint_shape;
        ] );
      ( "percentile",
        [
          Alcotest.test_case "rule" `Quick test_percentile_rule;
          Alcotest.test_case "values" `Quick test_percentile_values;
        ] );
    ]
