(* Tests for the Table 2 report generation: row construction from checker
   results and the text/markdown/CSV renderers.  (The full table runs in
   `holistic table2`; here we use the fast bv-broadcast rows once and
   synthetic results.) *)

let fake_result outcome : Holistic.Checker.result =
  {
    spec =
      Ta.Spec.invariant ~name:"Fake" ~ltl:"[](true)"
        ~bad:[ ("x", Ta.Cond.some_nonempty [ "V0" ]) ]
        ();
    outcome;
    stats =
      {
        schemas_checked = 10;
        schemas_skipped = 0;
        subtrees_pruned = 0;
        core_prunes = 0;
        static_prunes = 0;
        prefix_hits = 0;
        slots_total = 120;
        solver_steps = 0;
        encode_time = 0.5;
        solve_time = 0.75;
        time = 1.25;
        jobs = 1;
        workers = [];
        cache = Smt.Portfolio.zero_counters;
      };
  }

let test_row_of_result () =
  let row =
    Report.row_of_result ~ta_label:"ta" ~size:"1g/2loc/3rules" ~paper:"9.99s"
      (fake_result Holistic.Checker.Holds)
  in
  Alcotest.(check string) "schemas" "10" row.Report.schemas;
  Alcotest.(check string) "avg" "12" row.Report.avg_len;
  Alcotest.(check string) "time" "1.25s" row.Report.time;
  Alcotest.(check string) "verdict" "holds" row.Report.verdict;
  let aborted =
    Report.row_of_result ~ta_label:"ta" ~size:"s" ~paper:">24h"
      (fake_result (Holistic.Checker.Aborted "budget"))
  in
  Alcotest.(check string) "aborted schemas" ">10" aborted.Report.schemas;
  Alcotest.(check string) "aborted verdict" "aborted" aborted.Report.verdict

let test_renderers () =
  let rows =
    [
      Report.row_of_result ~ta_label:"ta" ~size:"4g/10loc/19rules" ~paper:"5.61s"
        (fake_result Holistic.Checker.Holds);
    ]
  in
  let md = Report.to_markdown rows in
  Alcotest.(check bool) "markdown header" true (String.length md > 0 && md.[0] = '|');
  Alcotest.(check int) "markdown lines" 3
    (List.length (String.split_on_char '\n' (String.trim md)));
  let csv = Report.to_csv rows in
  Alcotest.(check int) "csv lines" 2 (List.length (String.split_on_char '\n' (String.trim csv)));
  Alcotest.(check bool) "csv has verdict" true
    (List.exists (fun line -> List.mem "holds" (String.split_on_char ',' line))
       (String.split_on_char '\n' csv))

let test_bv_rows_live () =
  let rows = Report.bv_rows () in
  Alcotest.(check int) "four rows" 4 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check string) ("verdict " ^ r.Report.property) "holds" r.Report.verdict;
      Alcotest.(check string) ("size " ^ r.Report.property) "4g/10loc/19rules" r.Report.size)
    rows

let test_size_string () =
  Alcotest.(check string) "bv size" "4g/10loc/19rules"
    (Report.size_string Models.Bv_ta.automaton);
  Alcotest.(check string) "naive size" "14g/26loc/45rules"
    (Report.size_string Models.Naive_ta.automaton)

let () =
  Alcotest.run "report"
    [
      ( "rows",
        [
          Alcotest.test_case "row construction" `Quick test_row_of_result;
          Alcotest.test_case "renderers" `Quick test_renderers;
          Alcotest.test_case "live bv rows" `Quick test_bv_rows_live;
          Alcotest.test_case "size strings" `Quick test_size_string;
        ] );
    ]
