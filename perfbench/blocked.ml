(* blocked_serve: the blocked 1-d skip-web (§2.4.1, O(log n / log log n)
   queries) with E20's read cache, H = n hosts, jobs = 1. It never calls
   Hierarchy, so a hierarchy change should read flat here. *)

open Common
open Skeleton
module B = Skipweb_core.Blocked1d
module Prng = Skipweb_util.Prng
module O = Skipweb_util.Ordseq
module W = Skipweb_workload.Workload

type params = {
  n : int;
  builds : int;
  gate_ops : int;
  update_every : int;  (* the gate holds a per-key update every this many ops *)
  epochs : int;
  batch : int;
}

let default = { n = 16_384; builds = 3; gate_ops = 1000; update_every = 100; epochs = 3; batch = 1000 }
let bound p = 100 * p.n
let range_width = 1600
let m_of p = 4 * ceil_log2 p.n
let cache_levels = 4
let cache_replicas = 2

type op = Query of int | Range of int * int | Insert of int | Remove of int

type st = { p : params; oracle : Oracle1d.t; zipf : W.zipf; qmix : int array; gen : Prng.t }

(* Per-key updates only at fixed gate positions: each one rebuilds the
   block and cone maps, so a handful is all a run can afford. They
   alternate inserting a fresh key and removing it again. *)
let next st i =
  let rng = st.gen in
  if i < st.p.gate_ops && i > 0 && i mod st.p.update_every = 0 then
    if Fresh.size st.oracle.fresh = 0 then Insert (Oracle1d.fresh_key st.oracle rng (bound st.p))
    else Remove (Fresh.get st.oracle.fresh 0)
  else if Prng.float rng 1.0 < 0.8 then
    if Prng.bool rng then Query (W.zipf_draw st.zipf rng)
    else Query st.qmix.(Prng.int rng (Array.length st.qmix))
  else begin
    let lo = Prng.int rng (bound st.p - range_width) in
    Range (lo, lo + range_width - 1)
  end

let inputs p ~seed =
  let keys = W.distinct_ints ~seed ~n:p.n ~bound:(bound p) in
  let zipf = W.zipf_prepare ~rng:(Prng.create (seed + 301)) ~keys ~s:1.1 in
  let qmix = W.query_mix ~seed:(seed + 302) ~keys ~n:65536 ~bound:(bound p) in
  (keys, zipf, qmix)

let new_st p ~seed keys zipf qmix =
  { p; oracle = Oracle1d.create keys; zipf; qmix; gen = Prng.create (seed + 303) }

let opt = function None -> -1 | Some k -> k

let exec ctx st t ~qrng ~record:keep acc i op ~parent ~gate =
  if keep then acc.ops <- op :: acc.ops;
  let o = st.oracle in
  match op with
  | Query q -> (
      match timed ctx "blocked1d.query" ~parent ~op:i (fun () -> B.query t ~rng:qrng q) with
      | exception e -> fail ctx "query %d: %s" q (Printexc.to_string e)
      | r, dt, dw ->
          record acc Query ~gate ~dt ~dw ~msgs:r.messages
            ~answer:(mix (mix (opt r.predecessor) (opt r.successor)) (opt r.nearest));
          if
            r.predecessor <> Oracle1d.predecessor o q
            || r.successor <> Oracle1d.successor o q
            || r.nearest <> Oracle1d.nearest o q
          then fail ctx "query %d: wrong answer" q)
  | Range (lo, hi) -> (
      match timed ctx "blocked1d.range" ~parent ~op:i (fun () -> B.range t ~rng:qrng ~lo ~hi) with
      | exception e -> fail ctx "range %d: %s" lo (Printexc.to_string e)
      | r, dt, dw ->
          record acc Scan ~gate ~dt ~dw ~msgs:r.messages ~answer:(List.fold_left mix 0 r.keys);
          if r.keys <> Oracle1d.keys o lo hi then fail ctx "range [%d,%d]: wrong keys" lo hi)
  | Insert k | Remove k -> (
      let ins = match op with Insert _ -> true | _ -> false in
      let name = if ins then "blocked1d.insert" else "blocked1d.delete" in
      match timed ctx name ~parent ~op:i (fun () -> if ins then B.insert t k else B.delete t k) with
      | exception e -> fail ctx "update %d: %s" k (Printexc.to_string e)
      | msgs, dt, dw ->
          record acc Update ~gate ~dt ~dw ~msgs ~answer:0;
          if ins then Fresh.add o.fresh k else Fresh.remove o.fresh k;
          if B.size t <> Oracle1d.size o then fail ctx "update %d: wrong size" k)

let build ctx p ~seed ~parent ~census keys =
  Skeleton.build ctx ~hosts:p.n ~name:"blocked1d.build" ~parent ~census (fun net ->
      B.build ~net ~seed ~m:(m_of p) ~cache_levels ~cache_replicas keys)

let gate_run ctx st (t, net) ~seed =
  let qrng = Prng.create (seed + 304) in
  Skeleton.gate_run ctx ~gate_ops:st.p.gate_ops net (fun acc i ->
      exec ctx st t ~qrng ~record:false acc i (next st i))

let gate_only ctx p ~seed =
  let keys, zipf, qmix = inputs p ~seed in
  let s, _, _ = build ctx p ~seed ~parent:0 ~census:false keys in
  let st = new_st p ~seed keys zipf qmix in
  let g, _ = gate_run ctx st s ~seed in
  (g, fst s, st)

let run ctx p =
  let seed = ctx.seed in
  let keys, zipf, qmix = inputs p ~seed in
  let g0 = Gcprobe.snap () in
  (* The traced run keeps a twin build to replay the gate untraced. *)
  let (t, net), twin, setup_s, wpk =
    setup ctx ~builds:p.builds ~twin:(ctx.spans <> None) (build ctx p ~seed keys)
  in
  let g1 = Gcprobe.snap () in
  let untraced =
    Option.map (fun tw -> untraced_gate ctx (fun quiet -> gate_run quiet (new_st p ~seed keys zipf qmix) tw ~seed)) twin
  in
  settle ctx;
  let g2 = Gcprobe.snap () in
  let st = new_st p ~seed keys zipf qmix in
  let acc = new_acc () in
  let qrng = Prng.create (seed + 304) in
  let traced = ctx.spans <> None in
  let s =
    run_stream ctx net acc ~untraced ~gate_ops:p.gate_ops ~step:(fun acc i ->
        exec ctx st t ~qrng ~record:traced acc i (next st i))
  in
  let g3 = Gcprobe.snap () in
  settle ctx;
  let g4 = Gcprobe.snap () in
  let brng = Prng.create (seed + 305) in
  let epochs =
    phase ctx "batch" (fun ph ->
        List.init p.epochs (fun _ ->
            let keys =
              bench ctx "bench.gen" ~parent:ph (fun () ->
                  Oracle1d.fresh_batch st.oracle brng (bound p) p.batch)
            in
            ctx.attempted <- ctx.attempted + 2;
            let ins, ti = time_span ctx "blocked1d.insert_batch" ~parent:ph (fun () -> B.insert_batch t keys) in
            let rem, tr = time_span ctx "blocked1d.delete_batch" ~parent:ph (fun () -> B.delete_batch t keys) in
            if ins <> p.batch || rem <> p.batch || B.size t <> Oracle1d.size st.oracle then
              fail ctx "batch epoch: inserted %d removed %d of %d" ins rem p.batch;
            (keys, ti, tr)))
  in
  let g5 = Gcprobe.snap () in
  phase ctx "check" (fun ph ->
      bench ctx "blocked1d.check_invariants" ~parent:ph (fun () ->
          check_invariants ctx "blocked1d invariants" (fun () -> B.check_invariants t)));
  let e2e = e2e_metrics ~setup_s ~wpk ~batch_keys_per_s:(keys_per_s epochs) acc s in
  let layers =
    match ctx.spans with
    | None -> []
    | Some sp ->
        (* Engine replay: the same keys, stream ops and batch straight
           through Ordseq, the ground-set store of the blocked structure. *)
        let engine_build_s = replay_timed ctx "ordseq.build" ~times:p.builds (fun () -> ignore (O.of_array keys)) in
        let eng = phase ctx "replay" (fun ph -> bench ctx "ordseq.build" ~parent:ph (fun () -> O.of_array keys)) in
        let engine =
          replay ctx "ordseq.replay" acc ~classes:3
            ~cls:(function Query _ -> 0 | Range _ -> 1 | _ -> 2)
            (function
              | Query q -> ignore (O.predecessor eng q, O.successor eng q, O.nearest eng q)
              | Range (lo, hi) -> ignore (O.range_keys eng ~lo ~hi)
              | Insert k -> ignore (O.insert eng k)
              | Remove k -> ignore (O.remove eng k))
        in
        let splices =
          List.map
            (fun (k, _, _) ->
              let sorted = Array.copy k in
              Array.sort compare sorted;
              replay_timed ctx "ordseq.splice" ~times:1 (fun () ->
                  ignore (O.insert_batch eng sorted);
                  ignore (O.remove_batch eng sorted)))
            epochs
        in
        let net_us, network = network_metrics ctx ~hosts:p.n net s in
        let outer = outer_time sp [ "blocked1d.query"; "blocked1d.range"; "blocked1d.insert"; "blocked1d.delete" ] in
        [
          m "blocked1d.build_s" "s" (Samples.median (Spans.durations sp "blocked1d.build"));
          m "blocked1d.query_us" "us" (p50_us (Spans.durations sp "blocked1d.query"));
          m "blocked1d.range_us" "us" (p50_us (Spans.durations sp "blocked1d.range"));
          m "blocked1d.update_us" "us" (p50_us acc.lat_u);
          m "blocked1d.batch_s" "s" (Samples.median (batch_calls epochs));
          m "blocked1d.basic_levels" "count" (float_of_int (List.length (B.basic_levels t)));
          m "blocked1d.block_size" "count" (float_of_int (B.block_size t));
          m "blocked1d.storage_per_key" "units/key"
            (float_of_int (B.replicated_storage t) /. float_of_int (B.size t));
          m "blocked1d.self_share" "share" (self_share ~outer ~engine ~net_us s);
          m "ordseq.build_s" "s" engine_build_s;
          m "ordseq.locate_us" "us" (p50_us engine.(0));
          m "ordseq.splice_s" "s" (median_of splices);
          m "pool.jobs" "count" 1.0;
        ]
        @ network
        @ gc_metrics "setup" (Gcprobe.diff g0 g1)
        @ gc_metrics "stream" (Gcprobe.diff g2 g3)
        @ gc_metrics "batch" (Gcprobe.diff g4 g5)
        @ trace_metrics sp ~untraced s
  in
  { e2e; layers; info = info ~n:p.n acc s @ [ ("m", string_of_int (m_of p)) ] }
