(* The benchmark command:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--jobs J] [--trace-file PATH]

   Prints one "metric NAME VALUE UNIT" line per metric, an info line, and
   as its last line one JSON object with the keys correct, attempted,
   failed and metrics. With --trace 0 the metrics are the end-to-end ones;
   with --trace 1 they are the per-layer ones, measured in a separate run
   with spans recorded around every call into a layer. *)

open Perfbench
open Common

let workloads = [ "oned_mixed"; "quad_scan"; "blocked_serve" ]

(* Every per-layer metric with its unit. A layer the workload never
   calls reads 0: it did no work and spent no time. *)
let layer_names =
  [
    ("hierarchy.build_s", "s"); ("hierarchy.level_sets", "count");
    ("hierarchy.small_set_share", "share"); ("hierarchy.build_over_engine", "ratio");
    ("hierarchy.query_us", "us"); ("hierarchy.scan_us", "us"); ("hierarchy.update_us", "us");
    ("hierarchy.batch_s", "s"); ("hierarchy.ranges_per_query", "ranges");
    ("hierarchy.storage_per_key", "ranges/key"); ("hierarchy.self_share", "share");
    ("ordseq.build_s", "s"); ("ordseq.locate_us", "us"); ("ordseq.splice_s", "s");
    ("cqtree.build_s", "s"); ("cqtree.locate_us", "us"); ("cqtree.box_us", "us");
    ("cqtree.knn_us", "us"); ("cqtree.update_us", "us"); ("presort.sort_s", "s");
    ("blocked1d.build_s", "s"); ("blocked1d.query_us", "us"); ("blocked1d.range_us", "us");
    ("blocked1d.update_us", "us"); ("blocked1d.batch_s", "s"); ("blocked1d.basic_levels", "count");
    ("blocked1d.block_size", "count"); ("blocked1d.storage_per_key", "units/key");
    ("blocked1d.self_share", "share");
    ("network.messages_per_op", "msgs/op"); ("network.sessions", "count");
    ("network.max_traffic", "count"); ("network.max_memory", "units"); ("network.replay_us", "us");
    ("pool.jobs", "count"); ("pool.tasks", "count"); ("pool.busy_s", "s"); ("pool.idle_share", "share");
    ("pool.max_slot_share", "share"); ("pool.batch_speedup", "ratio");
  ]
  @ List.concat_map
      (fun ph ->
        List.map
          (fun (k, u) -> (Printf.sprintf "gc.%s.%s" ph k, u))
          [
            ("minor_words", "words"); ("major_words", "words"); ("minor_collections", "count");
            ("major_collections", "count"); ("pause_s", "s");
          ])
      [ "setup"; "stream"; "batch" ]
  @ [ ("trace.overhead_share", "share"); ("trace.coverage", "share") ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (oned_mixed|quad_scan|blocked_serve) --seed N --seconds S \
     --trace 0|1 [--jobs J] [--trace-file PATH]";
  exit 2

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let jobs = ref None and trace_file = ref "" in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string_opt v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string_opt v; parse r
    | "--trace" :: v :: r -> trace := (match v with "0" -> Some false | "1" -> Some true | _ -> usage ()); parse r
    | "--jobs" :: v :: r -> jobs := int_of_string_opt v; parse r
    | "--trace-file" :: v :: r -> trace_file := v; parse r
    | [] -> ()
    | a :: _ -> prerr_endline ("unknown argument " ^ a); usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) then usage ();
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0.0 -> (s, t, tr)
    | _ -> usage ()
  in
  let nproc = Domain.recommended_domain_count () in
  (* Only oned_mixed runs on a pool; the other workloads run at jobs = 1. *)
  let jobs =
    match (!workload, !jobs) with
    | "oned_mixed", None -> min 2 nproc
    | "oned_mixed", Some j -> j
    | _, (None | Some 1) -> 1
    | _, Some _ -> prerr_endline "--jobs applies to oned_mixed only"; exit 2
  in
  if jobs < 1 || jobs > nproc then begin
    Printf.eprintf "jobs = %d refused: must be between 1 and nproc = %d\n" jobs nproc;
    exit 2
  end;
  if trace then begin
    Gcprobe.start ();
    at_exit Gcprobe.stop
  end;
  let ctx = make_ctx ~seed ~seconds ~jobs ~trace in
  let r =
    match !workload with
    | "oned_mixed" -> Oned.run ctx Oned.default
    | "quad_scan" -> Quad.run ctx Quad.default
    | _ -> Blocked.run ctx Blocked.default
  in
  List.iter
    (fun x -> if not (List.mem_assoc x.name layer_names) then failwith ("unlisted metric " ^ x.name))
    r.layers;
  let metrics =
    if trace then
      List.map
        (fun (name, unit_) ->
          m name unit_ (match List.find_opt (fun x -> x.name = name) r.layers with Some x -> x.value | None -> 0.0))
        layer_names
    else r.e2e
  in
  Gcprobe.stop ();
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  if not finite then prerr_endline "perfbench: FAILED a metric is not finite";
  (match (ctx.spans, !trace_file) with
  | Some sp, path when path <> "" -> Spans.write sp path
  | _ -> ());
  List.iter (fun x -> Printf.printf "metric %-32s %s %s\n" x.name (json_num x.value) x.unit_) metrics;
  let info =
    [
      ("workload", !workload); ("seed", string_of_int seed); ("nproc", string_of_int nproc);
      ("jobs", string_of_int jobs); ("ocaml_version", Sys.ocaml_version);
      ("trace", if trace then "1" else "0"); ("seconds", json_num seconds);
    ]
    @ (if trace then [ ("gc_events_lost", string_of_int !Gcprobe.lost) ] else [])
    @ r.info
  in
  Printf.printf "info {%s}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) info));
  let correct = ctx.failed = 0 && finite in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    ctx.attempted ctx.failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_num x.value) x.unit_)
          metrics))
