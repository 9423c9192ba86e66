(* JSON output contract: golden bytes of every deterministic emitter.
   The expected strings (and the audit files under golden/) are the
   output of the hand-formatted emitters these functions replaced, so
   a printer change that moves a byte fails here. The one intended
   difference is non-finite numbers, which now print as null. *)

module Metrics = Mm_util.Metrics
module Diag = Mm_util.Diag
module Prov = Mm_util.Prov
module Eventlog = Mm_util.Eventlog
module Runlog = Mm_util.Runlog
module Merge_flow = Mm_core.Merge_flow
module Job = Mm_service.Job
module Rcache = Mm_service.Rcache
module Json = Mm_util.Json

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let read_golden name =
  In_channel.with_open_bin (Filename.concat "golden" name) In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Audit                                                               *)

let audit_of modes jobs =
  (* The coverage section reads cumulative counters. *)
  Metrics.reset ();
  Mm_core.Audit.to_json (Merge_flow.run ~jobs modes) ^ "\n"

let audit_golden name modes () =
  let expected = read_golden name in
  List.iter
    (fun jobs ->
      check Alcotest.string
        (Printf.sprintf "%s at jobs=%d" name jobs)
        expected (audit_of modes jobs))
    [ 1; 2 ]

let audit_cases =
  [
    tc "paper circuit, constraint set 6" (fun () ->
        let d = Mm_workload.Paper_circuit.build () in
        let a, b = Mm_workload.Paper_circuit.constraint_set6 d in
        audit_golden "audit_paper_set6.json" [ a; b ] ());
    tc "preset B" (fun () ->
        let _, _, modes = Mm_workload.Presets.build Mm_workload.Presets.design_b in
        audit_golden "audit_preset_b.json" modes ());
  ]

(* ------------------------------------------------------------------ *)
(* Small emitters                                                      *)

let diags =
  [
    Diag.make ~loc:(Diag.loc ~line:3 ~col:7 "a.sdc") Diag.Error ~code:"sdc.parse"
      "unexpected token \"]\"\tat\\end\n";
    Diag.make ~loc:(Diag.loc "b.sdc") Diag.Warning ~code:"merge.quarantined"
      "mode \x01b set aside";
    Diag.make ~loc:(Diag.loc ~line:12 "") Diag.Info ~code:"io.read" "line only";
    Diag.make Diag.Fatal ~code:"io.netlist" "no location";
  ]

let prov =
  Prov.make ~scope:"merged_0"
    [
      Prov.seed ~modes:[ "A"; "B" ] ~origin:Prov.Union
        "create_clock -name c -period 10 [get_ports clk]";
      Prov.seed
        ~evidence:[ [ "pass", "2"; "endpoint", "r/D" ]; [ "note", "q\"uote" ] ]
        ~notes:[ "added by refinement" ]
        ~origin:(Prov.Comparison_fix { pass = 2 })
        "set_false_path -to [get_pins r/D]";
      Prov.seed ~origin:Prov.Derived_exclusivity
        "set_clock_groups -physically_exclusive";
    ]

let summary =
  {
    Job.sm_n_individual = 3;
    sm_n_merged = 2;
    sm_reduction_percent = 100. /. 3.;
    sm_runtime_s = 0.0123456789012;
    sm_quarantined = [ "m\"q"; "m2" ];
    sm_degraded = 1;
  }

let event =
  {
    Eventlog.ev_seq = 7;
    ev_t_ns = 123456789012345L;
    ev_ts = 1760764051.123456;
    ev_kind = "stage.finish";
    ev_attrs = [ "stage", "merge.refine"; "msg", "a\"b\\c\n" ];
  }

let record =
  {
    Runlog.r_schema = Runlog.schema_version;
    r_label = "perf";
    r_ts = 1760764051.1234567;
    r_git_rev = "0123abcd";
    r_jobs = 2;
    r_spans =
      [
        {
          Runlog.ss_name = "merge.flow";
          ss_calls = 1;
          ss_total_s = 0.1 +. 0.2;
          ss_self_s = 1.25;
        };
        {
          Runlog.ss_name = "sta \"q\"";
          ss_calls = 12;
          ss_total_s = 3e-7;
          ss_self_s = 0.;
        };
      ];
    r_counters = [ "pool.tasks_executed", 12; "merge.cliques", 0 ];
    r_gauges = [ "merge.jobs", 2.; "x.big", 1.5e9 ];
    r_gc = [ "gc.minor_words", 634123456.; "gc.heap_words", 1e20 ];
    r_events = [ "stage.start", 4 ];
  }

let emitter_cases =
  [
    tc "Diag.render_json with and without locations" (fun () ->
        check Alcotest.string "diags"
          {|[{"severity":"error","code":"sdc.parse","file":"a.sdc","line":3,"col":7,"message":"unexpected token \"]\"\tat\\end\n"},{"severity":"warning","code":"merge.quarantined","file":"b.sdc","message":"mode \u0001b set aside"},{"severity":"info","code":"io.read","file":"","line":12,"message":"line only"},{"severity":"fatal","code":"io.netlist","message":"no location"}]|}
          (Diag.render_json diags);
        check Alcotest.string "empty" "[]" (Diag.render_json []));
    tc "Prov.to_json" (fun () ->
        check Alcotest.string "store"
          {|{"scope":"merged_0","entries":[{"id":"merged_0#c0","line":"create_clock -name c -period 10 [get_ports clk]","origin":"union","modes":["A","B"],"evidence":[],"notes":[]},{"id":"merged_0#c1","line":"set_false_path -to [get_pins r/D]","origin":"comparison-pass2","modes":[],"evidence":[{"pass":"2","endpoint":"r/D"},{"note":"q\"uote"}],"notes":["added by refinement"]},{"id":"merged_0#c2","line":"set_clock_groups -physically_exclusive","origin":"derived-exclusivity","modes":[],"evidence":[],"notes":[]}]}|}
          (Prov.to_json prov));
    tc "Job.summary_json" (fun () ->
        check Alcotest.string "summary"
          {|{"n_individual":3,"n_merged":2,"reduction_percent":33.3333333,"runtime_s":0.0123456789,"quarantined":["m\"q","m2"],"degraded":1}|}
          (Job.summary_json summary));
    tc "Rcache.stats_json" (fun () ->
        Metrics.reset ();
        check Alcotest.string "memory only"
          {|{"entries":0,"capacity":3,"disk":null,"disk_files":0,"hits":0,"misses":0,"stores":0,"evictions":0}|}
          (Rcache.stats_json (Rcache.create ~entries:3 ()));
        Metrics.incr ~by:2 "cache.hits";
        Metrics.incr "cache.misses";
        check Alcotest.string "with a disk tier"
          {|{"entries":0,"capacity":5,"disk":"golden_rcache","disk_files":0,"hits":2,"misses":1,"stores":0,"evictions":0}|}
          (Rcache.stats_json (Rcache.create ~dir:"golden_rcache" ~entries:5 ()));
        Metrics.reset ());
    tc "Metrics.to_json over a controlled registry" (fun () ->
        Metrics.reset ();
        Metrics.incr ~by:3 "a.count";
        Metrics.set "b.gauge" 2.5;
        Metrics.set "c.big" 1234567891.5;
        List.iter (Metrics.observe "d.hist") [ 0.5; 1.; 2.; 4.; 8. ];
        Metrics.observe "e.one" 0.1;
        check Alcotest.string "registry"
          {|{"a.count":3,"b.gauge":2.5,"c.big":1.23456789e+09,"d.hist":{"count":5,"sum":15.5,"min":0.5,"max":8,"mean":3.1,"p50":2,"p90":8,"p99":8},"e.one":{"count":1,"sum":0.1,"min":0.1,"max":0.1,"mean":0.1,"p50":0.1,"p90":0.1,"p99":0.1}}|}
          (Metrics.to_json ());
        Metrics.reset ());
    tc "Metrics.to_json non-finite gauges" (fun () ->
        Metrics.reset ();
        Metrics.set "g.inf" Float.infinity;
        Metrics.set "g.nan" Float.nan;
        check Alcotest.string "non-finite" {|{"g.inf":null,"g.nan":null}|}
          (Metrics.to_json ());
        Metrics.reset ());
    tc "Eventlog.event_json" (fun () ->
        check Alcotest.string "event"
          {|{"seq":7,"ts":1760764051.123456,"t_ns":123456789012345,"kind":"stage.finish","attrs":{"stage":"merge.refine","msg":"a\"b\\c\n"}}|}
          (Eventlog.event_json event);
        check Alcotest.string "no attrs, non-finite ts"
          {|{"seq":7,"ts":null,"t_ns":123456789012345,"kind":"stage.finish","attrs":{}}|}
          (Eventlog.event_json { event with ev_attrs = []; ev_ts = Float.nan }));
    tc "Eventlog.to_ndjson header" (fun () ->
        Eventlog.reset ();
        Eventlog.set_capacity 2;
        List.iter Eventlog.log [ "a"; "b"; "c" ];
        check Alcotest.string "header"
          {|{"schema":"modemerge-events/1","total":3,"dropped":1}|}
          (List.hd (String.split_on_char '\n' (Eventlog.to_ndjson ())));
        Eventlog.set_capacity Eventlog.default_capacity;
        Eventlog.reset ());
    tc "Runlog.to_json" (fun () ->
        check Alcotest.string "record"
          {|{"schema":"modemerge-runlog/1","label":"perf","ts":1760764051.1234567,"git_rev":"0123abcd","jobs":2,"spans":{"merge.flow":{"calls":1,"total_s":0.30000000000000004,"self_s":1.25},"sta \"q\"":{"calls":12,"total_s":3e-07,"self_s":0}},"counters":{"pool.tasks_executed":12,"merge.cliques":0},"gauges":{"merge.jobs":2,"x.big":1500000000},"gc":{"gc.minor_words":634123456,"gc.heap_words":1e+20},"events":{"stage.start":4}}|}
          (Runlog.to_json record));
    tc "Runlog.to_json non-finite values" (fun () ->
        check Alcotest.string "record"
          {|{"schema":"modemerge-runlog/1","label":"perf","ts":null,"git_rev":"0123abcd","jobs":2,"spans":{},"counters":{"pool.tasks_executed":12,"merge.cliques":0},"gauges":{"n":null},"gc":{"gc.minor_words":634123456,"gc.heap_words":1e+20},"events":{"stage.start":4}}|}
          (Runlog.to_json
             {
               record with
               r_spans = [];
               r_ts = Float.infinity;
               r_gauges = [ "n", Float.nan ];
             }));
  ]

(* ------------------------------------------------------------------ *)
(* The module itself                                                   *)

(* Bytes that need escaping, bytes that must pass through, and a
   multi-byte UTF-8 sequence. *)
let gen_string =
  QCheck2.Gen.(
    string_size
      ~gen:
        (oneof
           [
             oneofl
               [ '"'; '\\'; '\n'; '\r'; '\t'; '\x00'; '\x01'; '\x1f'; '/'; '\x7f';
                 '\xc3'; '\xa9' ];
             printable;
           ])
      (0 -- 12))

let gen_float =
  QCheck2.Gen.(
    oneof
      [
        map (fun f -> if Float.is_finite f then f else 0.) float;
        map float_of_int small_signed_int;
        oneofl [ 0.; -0.; 0.1 +. 0.2; 1e-310; 1.5e9; 1760764051.123456 ];
      ])

let gen_json =
  let open QCheck2.Gen in
  (* A small key alphabet makes repeated keys in one object common. *)
  let key = oneof [ oneofl [ "a"; "b"; "a\"b"; "" ]; gen_string ] in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               pure Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun f -> Json.Num f) gen_float;
               map (fun s -> Json.Str s) gen_string;
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               2, leaf;
               1, map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n / 2)));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (0 -- 4) (pair key (self (n / 2)))) );
             ])

(* What a value reads back as: the parser returns every number as a
   float. *)
let rec as_read = function
  | Json.Int n -> Json.Num (float_of_int n)
  | Json.Arr l -> Json.Arr (List.map as_read l)
  | Json.Obj l -> Json.Obj (List.map (fun (k, v) -> k, as_read v) l)
  | v -> v

let module_cases =
  [
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 13 |])
      (QCheck2.Test.make ~name:"parse reads back what the printer wrote"
         ~count:2000 ~print:Json.to_string gen_json (fun v ->
           Json.parse (Json.to_string v) = as_read v));
    tc "Int prints as plain digits" (fun () ->
        check Alcotest.string "int above 1e9" "1234567890123"
          (Json.to_string (Json.Int 1234567890123));
        check Alcotest.string "the display rule would not" "1.23456789e+12"
          (Json.to_string (Json.display 1234567890123.)));
    tc "Job.spec_to_json reads back through spec_of_json" (fun () ->
        let spec =
          {
            Job.sp_design_format = "v";
            sp_design_text = "module top;\n\"q\"\tendmodule\n";
            sp_sources = [ "func", "create_clock -period 1.5 [get_ports c]\n"; "s", "" ];
            sp_options = Job.default_options;
            sp_priority = -3;
          }
        in
        let tolerant =
          {
            spec with
            Job.sp_options =
              {
                Job.opt_policy = Merge_flow.Permissive;
                opt_check_equivalence = false;
                opt_tolerance = Some { Mm_util.Toler.rel = 0.025; abs = 1e-9 };
                opt_annotate = true;
              };
          }
        in
        List.iter
          (fun s ->
            check Alcotest.bool "round trip" true
              (Job.spec_of_json (Job.spec_to_json s) = Ok s))
          [ spec; tolerant ]);
    tc "every number rule prints non-finite values as null" (fun () ->
        List.iter
          (fun (name, rule) ->
            List.iter
              (fun x ->
                check Alcotest.string
                  (Printf.sprintf "%s %h" name x)
                  "null"
                  (Json.to_string (rule x)))
              [ Float.nan; Float.infinity; Float.neg_infinity ])
          [ "display", Json.display; "exact", Json.exact; "stamp", Json.stamp ]);
  ]

let () =
  Alcotest.run "mm_json"
    [
      "json golden audit", audit_cases;
      "json golden emitters", emitter_cases;
      "json module", module_cases;
    ]
