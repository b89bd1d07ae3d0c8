(* The skeleton the three workloads share: set-up with a twin build, the
   gate, the stream, and the metrics every workload reports. *)

open Common

module Net = Skipweb_net.Network

(* What the deterministic gate prefix of a stream yields. *)
type gate = {
  digest : int;
  query_messages : float;
  update_messages : float;
  max_host_units : int;
  alloc_words_per_op : float;
}

type kind = Query | Scan | Update

(* Latency samples per kind of op, and the gate's counters. *)
type 'op acc = {
  lat_q : Samples.t;
  lat_s : Samples.t;
  lat_u : Samples.t;
  mutable digest : int;
  mutable qmsgs : int;
  mutable nq : int;
  mutable umsgs : int;
  mutable nu : int;
  mutable gate_alloc : float;
  mutable ranges_visited : int;
  mutable ops : 'op list;  (* executed ops, newest first, for the traced run's replays *)
}

let new_acc () =
  {
    lat_q = Samples.create ();
    lat_s = Samples.create ();
    lat_u = Samples.create ();
    digest = 0;
    qmsgs = 0;
    nq = 0;
    umsgs = 0;
    nu = 0;
    gate_alloc = 0.0;
    ranges_visited = 0;
    ops = [];
  }

(* Account one timed call: its latency always; on the gate also its
   messages, allocation and a digest of its answer. *)
let record acc kind ~gate ~dt ~dw ~msgs ~answer =
  Samples.add (match kind with Query -> acc.lat_q | Scan -> acc.lat_s | Update -> acc.lat_u) dt;
  if gate then begin
    acc.digest <- mix (mix acc.digest msgs) answer;
    acc.gate_alloc <- acc.gate_alloc +. dw;
    match kind with
    | Query ->
        acc.qmsgs <- acc.qmsgs + msgs;
        acc.nq <- acc.nq + 1
    | Update ->
        acc.umsgs <- acc.umsgs + msgs;
        acc.nu <- acc.nu + 1
    | Scan -> ()
  end

let gate_of acc net gate_ops =
  {
    digest = mix acc.digest (Net.total_memory net);
    query_messages = float_of_int acc.qmsgs /. float_of_int (max 1 acc.nq);
    update_messages = float_of_int acc.umsgs /. float_of_int (max 1 acc.nu);
    max_host_units = Net.max_memory net;
    alloc_words_per_op = acc.gate_alloc /. float_of_int gate_ops;
  }

(* Build a structure with [make] on a fresh network of [hosts] hosts, in
   a span named [name]. Returns (structure, network), the build time and,
   with [census], the live words the build added per key (every workload
   has as many keys as hosts). The census costs two full major
   collections, so only the first build of a run takes it. *)
let build ctx ~hosts ~name ~parent ~census make =
  let net = bench ctx "network.create" ~parent (fun () -> Net.create ~hosts) in
  let live () = if census then bench ctx "bench.heap_census" ~parent live_words else 0 in
  let live0 = live () in
  let t, dt = time_span ctx name ~parent (fun () -> make net) in
  let live1 = live () in
  ((t, net), dt, float_of_int (live1 - live0) /. float_of_int hosts)

(* The set-up phase: [builds] builds of the same inputs. The last one
   serves the run; with [twin] the one before it is kept too. Returns
   both, the median build time and the first build's live words per key. *)
let setup ctx ~builds ~twin build =
  let kept = ref [] in
  let times =
    phase ctx "setup" (fun ph ->
        List.init builds (fun b ->
            ctx.attempted <- ctx.attempted + 1;
            (match !kept with x :: _ when twin -> kept := [ x ] | _ -> kept := []);
            let s, dt, wpk = build ~parent:ph ~census:(b = 0) in
            kept := s :: !kept;
            (dt, wpk)))
  in
  let main, twin = match !kept with [ a; b ] -> (a, Some b) | a :: _ -> (a, None) | [] -> assert false in
  (main, twin, median_of (List.map fst times), snd (List.hd times))

(* The gate alone, with no timing window: [step acc i] runs op [i]. *)
let gate_run ctx ~gate_ops net step =
  let acc = new_acc () in
  let t0 = Clock.now () in
  for i = 0 to gate_ops - 1 do
    ctx.attempted <- ctx.attempted + 1;
    step acc i ~parent:0 ~gate:true
  done;
  (gate_of acc net gate_ops, Clock.now () -. t0)

(* In the traced run, [f] replays the gate untraced on the twin build; its
   digest is compared with the traced gate's. *)
let untraced_gate ctx f =
  let quiet = { ctx with spans = None; attempted = 0; failed = 0 } in
  let g =
    phase ctx "stream" (fun ph -> bench ctx "bench.untraced_gate" ~parent:ph (fun () -> f quiet))
  in
  ctx.attempted <- ctx.attempted + quiet.attempted;
  ctx.failed <- ctx.failed + quiet.failed;
  g

type streamed = {
  stream_ops : int;
  gate : gate;
  gate_s : float;  (* wall clock of the gate *)
  cap : captured option;  (* the gate's sessions, in the traced run *)
  sessions : int;
  messages : int;
  max_traffic : int;
}

(* The stream on [net]. In the traced run the network tap captures the
   gate's sessions; its digest must match [untraced]'s. *)
let run_stream ctx net acc ~(untraced : (gate * float) option) ~gate_ops ~step =
  let cap = if ctx.spans <> None then Some (capture_tap net) else None in
  Net.reset_traffic net;
  let gate = ref None and gate_s = ref 0.0 in
  let t0 = Clock.now () in
  let stream_ops =
    stream ctx ~gate_ops ~step:(step acc) ~on_gate:(fun () ->
        Net.set_tap net None;
        gate_s := Clock.now () -. t0;
        gate := Some (gate_of acc net gate_ops))
  in
  let gate : gate = Option.get !gate in
  (match untraced with
  | Some (u, _) -> check ctx "gate digest differs between traced and untraced runs" (u.digest = gate.digest)
  | None -> ());
  {
    stream_ops;
    gate;
    gate_s = !gate_s;
    cap;
    sessions = Net.sessions_started net;
    messages = Net.total_messages net;
    max_traffic = Net.max_traffic net;
  }

(* Keys moved per second inside the batch calls, median over epochs of
   (keys, insert time, remove time). *)
let keys_per_s epochs =
  median_of (List.map (fun (k, ti, tr) -> float_of_int (2 * Array.length k) /. (ti +. tr)) epochs)

let batch_calls epochs = Samples.of_list (List.concat_map (fun (_, ti, tr) -> [ ti; tr ]) epochs)

let e2e_metrics ~setup_s ~wpk ~batch_keys_per_s acc s =
  let call_time = Samples.sum acc.lat_q +. Samples.sum acc.lat_s +. Samples.sum acc.lat_u in
  [
    m "setup_s" "s" setup_s;
    m "live_words_per_key" "words/key" wpk;
    m "query_p50_us" "us" (p50_us acc.lat_q);
    m "query_p99_us" "us" (p99_us acc.lat_q);
    m "scan_p50_us" "us" (p50_us acc.lat_s);
    m "scan_p99_us" "us" (p99_us acc.lat_s);
    m "update_p50_us" "us" (p50_us acc.lat_u);
    m "batch_keys_per_s" "keys/s" batch_keys_per_s;
    m "ops_per_s" "ops/s" (float_of_int s.stream_ops /. call_time);
    m "alloc_words_per_op" "words/op" s.gate.alloc_words_per_op;
    m "query_messages" "msgs/op" s.gate.query_messages;
    m "update_messages" "msgs/op" s.gate.update_messages;
    m "max_host_units" "units" (float_of_int s.gate.max_host_units);
  ]

let info ~n acc s =
  [
    ("n", string_of_int n);
    ("hosts", string_of_int n);
    ("stream_ops", string_of_int s.stream_ops);
    ("queries", string_of_int (Samples.count acc.lat_q));
    ("scans", string_of_int (Samples.count acc.lat_s));
    ("updates", string_of_int (Samples.count acc.lat_u));
    ("gate_digest", string_of_int s.gate.digest);
  ]

(* Replay the stream's ops straight through an engine, [f op] per op,
   timing each into the sample set [cls op] of [classes]. *)
let replay ctx name acc ~classes ~cls f =
  let s = Array.init classes (fun _ -> Samples.create ()) in
  phase ctx "replay" (fun ph ->
      bench ctx name ~parent:ph (fun () ->
          List.iter
            (fun op ->
              let t0 = Clock.now () in
              f op;
              Samples.add s.(cls op) (Clock.now () -. t0))
            (List.rev acc.ops)));
  s

(* [f ()] [times] times in the replay phase, as spans named [name];
   returns the median time. *)
let replay_timed ctx name ~times f =
  median_of
    (phase ctx "replay" (fun ph -> List.init times (fun _ -> snd (time_span ctx name ~parent:ph f))))

(* Network metrics of the stream, and µs per replayed session. *)
let network_metrics ctx ~hosts net s =
  let net_us, ok =
    phase ctx "replay" (fun ph ->
        bench ctx "network.replay" ~parent:ph (fun () ->
            network_replay ~hosts ~rounds:5 (Option.get s.cap)))
  in
  check ctx "network replay message total" ok;
  ( net_us,
    [
      m "network.messages_per_op" "msgs/op" (float_of_int s.messages /. float_of_int s.sessions);
      m "network.sessions" "count" (float_of_int s.sessions);
      m "network.max_traffic" "count" (float_of_int s.max_traffic);
      m "network.max_memory" "units" (float_of_int (Net.max_memory net));
      m "network.replay_us" "us" net_us;
    ] )

(* Derived: the share of the outer calls' time left after the engine
   replay and the network replay (scaled to the stream's sessions). *)
let self_share ~outer ~engine ~net_us s =
  1.0 -. ((Array.fold_left (fun a x -> a +. Samples.sum x) 0.0 engine +. (net_us *. 1e-6 *. float_of_int s.sessions)) /. outer)

let trace_metrics sp ~(untraced : (gate * float) option) s =
  [
    m "trace.overhead_share" "share"
      (match untraced with Some (_, u) -> (s.gate_s /. u) -. 1.0 | None -> nan);
    m "trace.coverage" "share" (Spans.min_coverage sp phases);
  ]

(* Hierarchy metrics shared by the two hierarchy workloads. [sizes] are
   the level sets' sizes; [engine_build_s] is a bare engine build of the
   same keys. *)
let hierarchy_metrics sp acc ~sizes ~storage ~size ~engine_build_s ~epochs ~self_share =
  let nsets = List.length sizes in
  let small = List.length (List.filter (fun s -> s <= 2) sizes) in
  let build_s = Samples.median (Spans.durations sp "hierarchy.build") in
  [
    m "hierarchy.build_s" "s" build_s;
    m "hierarchy.level_sets" "count" (float_of_int nsets);
    m "hierarchy.small_set_share" "share" (float_of_int small /. float_of_int nsets);
    m "hierarchy.build_over_engine" "ratio" (build_s /. engine_build_s);
    m "hierarchy.query_us" "us" (p50_us (Spans.durations sp "hierarchy.query"));
    m "hierarchy.scan_us" "us" (p50_us (Spans.durations sp "hierarchy.scan"));
    m "hierarchy.update_us" "us" (p50_us acc.lat_u);
    m "hierarchy.batch_s" "s" (Samples.median (batch_calls epochs));
    m "hierarchy.ranges_per_query" "ranges"
      (float_of_int acc.ranges_visited /. float_of_int (max 1 (Samples.count acc.lat_q)));
    m "hierarchy.storage_per_key" "ranges/key" (float_of_int storage /. float_of_int size);
    m "hierarchy.self_share" "share" self_share;
  ]

(* Total span time of the outer calls of a stream. *)
let outer_time sp names = List.fold_left (fun a n -> a +. Spans.total sp n) 0.0 names
