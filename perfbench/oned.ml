(* oned_mixed: the generic skip-web (Theorem 2) over 1-d integer keys,
   H = n hosts. Batch epochs on a pool, then a mixed single-op stream. *)

open Common
open Skeleton
module H = Skipweb_core.Hierarchy.Make (Skipweb_core.Instances.Ints)
module Prng = Skipweb_util.Prng
module Pool = Skipweb_util.Pool
module O = Skipweb_util.Ordseq
module Presort = Skipweb_util.Presort
module W = Skipweb_workload.Workload

type params = { n : int; builds : int; gate_ops : int; epochs : int; batch : int }

let default = { n = 100_000; builds = 2; gate_ops = 4000; epochs = 4; batch = 10_000 }
let bound p = 100 * p.n

(* Density is n / (100 n), so 1600 keys of domain hold about 16 keys. *)
let range_width = 1600

type op = Query of int | Range of int * int | Insert of int | Remove of int

type st = { p : params; oracle : Oracle1d.t; zipf : W.zipf; qmix : int array; gen : Prng.t }

let inputs p ~seed =
  let keys = W.distinct_ints ~seed ~n:p.n ~bound:(bound p) in
  let zipf = W.zipf_prepare ~rng:(Prng.create (seed + 101)) ~keys ~s:1.1 in
  let qmix = W.query_mix ~seed:(seed + 102) ~keys ~n:65536 ~bound:(bound p) in
  (keys, zipf, qmix)

let new_st p ~seed keys zipf qmix =
  { p; oracle = Oracle1d.create keys; zipf; qmix; gen = Prng.create (seed + 103) }

let next st =
  let rng = st.gen in
  let r = Prng.float rng 1.0 in
  if r < 0.6 then
    if Prng.bool rng then Query (W.zipf_draw st.zipf rng)
    else Query st.qmix.(Prng.int rng (Array.length st.qmix))
  else if r < 0.8 then begin
    let lo = Prng.int rng (bound st.p - range_width) in
    Range (lo, lo + range_width - 1)
  end
  else
    let fresh = st.oracle.fresh in
    if Fresh.size fresh = 0 || Prng.bool rng then
      Insert (Oracle1d.fresh_key st.oracle rng (bound st.p))
    else Remove (Fresh.get fresh (Prng.int rng (Fresh.size fresh)))

(* One op against the hierarchy, checked against the oracle. *)
let exec ctx st h ~qrng ~record:keep acc i op ~parent ~gate =
  if keep then acc.ops <- op :: acc.ops;
  let o = st.oracle in
  match op with
  | Query q -> (
      match timed ctx "hierarchy.query" ~parent ~op:i (fun () -> H.query h ~rng:qrng q) with
      | exception e -> fail ctx "query %d: %s" q (Printexc.to_string e)
      | (ans, stats), dt, dw ->
          acc.ranges_visited <- acc.ranges_visited + stats.ranges_visited;
          record acc Query ~gate ~dt ~dw ~msgs:stats.messages ~answer:(Option.value ans ~default:(-1));
          if ans <> Oracle1d.nearest o q then fail ctx "query %d: wrong nearest" q)
  | Range (lo, hi) -> (
      match timed ctx "hierarchy.scan" ~parent ~op:i (fun () -> H.scan h ~rng:qrng (lo, hi)) with
      | exception e -> fail ctx "range %d: %s" lo (Printexc.to_string e)
      | (count, stats), dt, dw ->
          record acc Scan ~gate ~dt ~dw ~msgs:stats.messages ~answer:count;
          if count <> Oracle1d.count o lo hi then fail ctx "range [%d,%d]: wrong count" lo hi)
  | Insert k | Remove k -> (
      let ins = match op with Insert _ -> true | _ -> false in
      let name = if ins then "hierarchy.insert" else "hierarchy.remove" in
      match timed ctx name ~parent ~op:i (fun () -> if ins then H.insert h k else H.remove h k) with
      | exception e -> fail ctx "update %d: %s" k (Printexc.to_string e)
      | msgs, dt, dw ->
          record acc Update ~gate ~dt ~dw ~msgs ~answer:0;
          if ins then Fresh.add o.fresh k else Fresh.remove o.fresh k;
          if H.size h <> Oracle1d.size o then fail ctx "update %d: wrong size" k)

let build ctx p ~seed ~parent ~census keys =
  Skeleton.build ctx ~hosts:p.n ~name:"hierarchy.build" ~parent ~census (fun net -> H.build ~net ~seed keys)

let gate_run ctx st (h, net) ~seed =
  let qrng = Prng.create (seed + 104) in
  Skeleton.gate_run ctx ~gate_ops:st.p.gate_ops net (fun acc i ->
      exec ctx st h ~qrng ~record:false acc i (next st))

(* Build and run the gate: what the pinned-cost test calls. *)
let gate_only ctx p ~seed =
  let keys, zipf, qmix = inputs p ~seed in
  let s, _, _ = build ctx p ~seed ~parent:0 ~census:false keys in
  let st = new_st p ~seed keys zipf qmix in
  let g, _ = gate_run ctx st s ~seed in
  (g, fst s, st)

(* One batch epoch: insert then remove [keys]. Returns the two call times
   and a digest of the counts and of every host's memory. *)
let epoch ctx st (h, net) ~pool ~parent keys =
  let ins, t_ins =
    time_span ctx "hierarchy.insert_batch" ~parent (fun () -> H.insert_batch ?pool h keys)
  in
  let after_ins = bench ctx "bench.digest" ~parent (fun () -> memory_digest net) in
  let rem, t_rem =
    time_span ctx "hierarchy.remove_batch" ~parent (fun () -> H.remove_batch ?pool h keys)
  in
  let n = Array.length keys in
  if ins <> n || rem <> n || H.size h <> Oracle1d.size st.oracle then
    fail ctx "batch epoch: inserted %d removed %d of %d" ins rem n;
  let after_rem = bench ctx "bench.digest" ~parent (fun () -> memory_digest net) in
  (t_ins, t_rem, mix (mix (mix ins rem) after_ins) after_rem)

let run ctx p =
  let seed = ctx.seed in
  let keys, zipf, qmix = inputs p ~seed in
  let g0 = Gcprobe.snap () in
  (* The twin receives the same batch epochs at jobs = 1, so the two
     builds must stay identical. *)
  let ((h, net) as main), twin, setup_s, wpk =
    setup ctx ~builds:p.builds ~twin:true (build ctx p ~seed keys)
  in
  settle ctx;
  let g1 = Gcprobe.snap () in
  let st = new_st p ~seed keys zipf qmix in
  let brng = Prng.create (seed + 105) in
  let pool = if ctx.jobs > 1 then Some (Pool.create ~jobs:ctx.jobs) else None in
  let runs =
    phase ctx "batch" (fun ph ->
        List.init p.epochs (fun _ ->
            let keys =
              bench ctx "bench.gen" ~parent:ph (fun () ->
                  Oracle1d.fresh_batch st.oracle brng (bound p) p.batch)
            in
            ctx.attempted <- ctx.attempted + 2;
            let ti, tr, dj = epoch ctx st main ~pool ~parent:ph keys in
            let serial =
              Option.map
                (fun tw ->
                  ctx.attempted <- ctx.attempted + 2;
                  let ti1, tr1, d1 = epoch ctx st tw ~pool:None ~parent:ph keys in
                  check ctx "batch digest differs between jobs values" (dj = d1);
                  ti1 +. tr1)
                twin
            in
            ((keys, ti, tr), serial)))
  in
  let epochs = List.map fst runs in
  let util = Option.map Pool.utilization pool in
  Option.iter Pool.shutdown pool;
  let g2 = Gcprobe.snap () in
  let untraced =
    match (twin, ctx.spans) with
    | Some tw, Some _ ->
        Some (untraced_gate ctx (fun quiet -> gate_run quiet (new_st p ~seed keys zipf qmix) tw ~seed))
    | _ -> None
  in
  settle ctx;
  let g3 = Gcprobe.snap () in
  let acc = new_acc () in
  let qrng = Prng.create (seed + 104) in
  let traced = ctx.spans <> None in
  let s =
    run_stream ctx net acc ~untraced ~gate_ops:p.gate_ops ~step:(fun acc i ->
        exec ctx st h ~qrng ~record:traced acc i (next st))
  in
  let g4 = Gcprobe.snap () in
  phase ctx "check" (fun ph ->
      bench ctx "hierarchy.check_invariants" ~parent:ph (fun () ->
          check_invariants ctx "hierarchy invariants" (fun () -> H.check_invariants h)));
  let e2e = e2e_metrics ~setup_s ~wpk ~batch_keys_per_s:(keys_per_s epochs) acc s in
  let layers =
    match ctx.spans with
    | None -> []
    | Some sp ->
        (* Engine replays: the same keys, stream ops and batches straight
           through Ordseq, the sorted-list engine under every level set. *)
        let engine_build_s = replay_timed ctx "ordseq.build" ~times:p.builds (fun () -> ignore (O.of_array keys)) in
        let eng = phase ctx "replay" (fun ph -> bench ctx "ordseq.build" ~parent:ph (fun () -> O.of_array keys)) in
        let engine =
          replay ctx "ordseq.replay" acc ~classes:3
            ~cls:(function Query _ -> 0 | Range _ -> 1 | _ -> 2)
            (function
              | Query q -> ignore (O.nearest eng q)
              | Range (lo, hi) -> ignore (O.lower_bound eng hi - O.lower_bound eng lo)
              | Insert k -> ignore (O.insert eng k)
              | Remove k -> ignore (O.remove eng k))
        in
        let presorts, splices =
          List.split
            (List.map
               (fun (k, _, _) ->
                 let sorted = ref [||] in
                 let ts = replay_timed ctx "presort.sort" ~times:1 (fun () -> sorted := Presort.sorted_distinct ~cmp:compare k) in
                 let tsp =
                   replay_timed ctx "ordseq.splice" ~times:1 (fun () ->
                       ignore (O.insert_batch eng !sorted);
                       ignore (O.remove_batch eng !sorted))
                 in
                 (ts, tsp))
               epochs)
        in
        let net_us, network = network_metrics ctx ~hosts:p.n net s in
        let outer = outer_time sp [ "hierarchy.query"; "hierarchy.scan"; "hierarchy.insert"; "hierarchy.remove" ] in
        let tj = List.fold_left (fun a (_, ti, tr) -> a +. ti +. tr) 0.0 epochs in
        let t1 = List.fold_left (fun a (_, t) -> a +. Option.value t ~default:nan) 0.0 runs in
        let pool_metrics =
          let tasks, busy, top =
            match util with
            | Some u -> (Array.fold_left ( + ) 0 u.tasks, Array.fold_left ( +. ) 0.0 u.busy_s, Array.fold_left Float.max 0.0 u.busy_s)
            | None -> (0, 0.0, 0.0)
          in
          [
            m "pool.jobs" "count" (float_of_int ctx.jobs);
            m "pool.tasks" "count" (float_of_int tasks);
            m "pool.busy_s" "s" busy;
            m "pool.idle_share" "share" (if busy > 0.0 then 1.0 -. (busy /. (float_of_int ctx.jobs *. tj)) else 0.0);
            m "pool.max_slot_share" "share" (if busy > 0.0 then top /. busy else 0.0);
            m "pool.batch_speedup" "ratio" (t1 /. tj);
          ]
        in
        hierarchy_metrics sp acc
          ~sizes:(List.concat (List.init (H.levels h) (fun l -> H.level_set_sizes h l)))
          ~storage:(H.total_storage h) ~size:(H.size h) ~engine_build_s ~epochs
          ~self_share:(self_share ~outer ~engine ~net_us s)
        @ [
            m "ordseq.build_s" "s" engine_build_s;
            m "ordseq.locate_us" "us" (p50_us engine.(0));
            m "ordseq.splice_s" "s" (median_of splices);
            m "presort.sort_s" "s" (median_of presorts);
          ]
        @ network @ pool_metrics
        @ gc_metrics "setup" (Gcprobe.diff g0 g1)
        @ gc_metrics "batch" (Gcprobe.diff g1 g2)
        @ gc_metrics "stream" (Gcprobe.diff g3 g4)
        @ trace_metrics sp ~untraced s
  in
  { e2e; layers; info = info ~n:p.n acc s }
