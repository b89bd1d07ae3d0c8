(* quad_scan: the generic skip-web over clustered 2-d points (compressed
   quadtree level sets, §3.1), H = n hosts, jobs = 1. Point location, box
   and k-NN scans and per-key updates, then small batch epochs. *)

open Common
open Skeleton
module Inst = Skipweb_core.Instances
module H = Skipweb_core.Hierarchy.Make (Inst.Points2d)
module Prng = Skipweb_util.Prng
module Presort = Skipweb_util.Presort
module Cq = Skipweb_quadtree.Cqtree
module Point = Skipweb_geom.Point
module W = Skipweb_workload.Workload

type params = { n : int; builds : int; gate_ops : int; epochs : int; batch : int }

let default = { n = 50_000; builds = 3; gate_ops = 2000; epochs = 4; batch = 2000 }
let clusters = 64
let radius = 0.02
let knn_k = 8
let box_limit = 32

(* Each cluster spreads n / clusters points uniformly over a square of
   side 2 * radius; a box of this half-side around a stored point holds
   about 32 of them. *)
let box_half p =
  0.5 *. sqrt (32.0 *. (2.0 *. radius) *. (2.0 *. radius) *. float_of_int clusters /. float_of_int p.n)

type op = Locate of Point.t | Box of Point.t * Point.t | Knn of Point.t | Insert of Point.t | Remove of Point.t

let bits = Point.grid_bits
let cell g = (g.(0) lsl bits) lor g.(1)

(* Number of significant bits of a non-negative int. *)
let bitlen x =
  let n = ref 0 and x = ref x in
  if !x lsr 16 <> 0 then (n := 16; x := !x lsr 16);
  if !x lsr 8 <> 0 then (n := !n + 8; x := !x lsr 8);
  if !x lsr 4 <> 0 then (n := !n + 4; x := !x lsr 4);
  if !x lsr 2 <> 0 then (n := !n + 2; x := !x lsr 2);
  if !x lsr 1 <> 0 then (n := !n + 1; x := !x lsr 1);
  !n + !x

(* The stored point set, as grid coordinates: the initial points (never
   removed) and the ones the stream inserted. *)
type oracle = {
  base : Point.t array;
  bx : int array;
  by : int array;
  cells : (int, unit) Hashtbl.t;
  mutable fresh : Point.t array;
  mutable nfresh : int;
}

let oracle_of base =
  let gs = Array.map Point.to_grid base in
  let cells = Hashtbl.create (2 * Array.length base) in
  Array.iter (fun g -> Hashtbl.replace cells (cell g) ()) gs;
  {
    base;
    bx = Array.map (fun g -> g.(0)) gs;
    by = Array.map (fun g -> g.(1)) gs;
    cells;
    fresh = Array.make 64 [||];
    nfresh = 0;
  }

let size o = Array.length o.base + o.nfresh

let iter_grid o f =
  Array.iteri (fun i x -> f x o.by.(i)) o.bx;
  for i = 0 to o.nfresh - 1 do
    let g = Point.to_grid o.fresh.(i) in
    f g.(0) g.(1)
  done

let add_fresh o p =
  if o.nfresh = Array.length o.fresh then o.fresh <- Array.append o.fresh o.fresh;
  o.fresh.(o.nfresh) <- p;
  o.nfresh <- o.nfresh + 1;
  Hashtbl.replace o.cells (cell (Point.to_grid p)) ()

let remove_fresh o p =
  let g = cell (Point.to_grid p) in
  let i = ref 0 in
  while cell (Point.to_grid o.fresh.(!i)) <> g do
    incr i
  done;
  o.fresh.(!i) <- o.fresh.(o.nfresh - 1);
  o.nfresh <- o.nfresh - 1;
  Hashtbl.remove o.cells g

(* A uniform point whose grid cell holds no stored point. *)
let rec fresh_point o rng ~avoid =
  let p = Point.create [ Prng.float rng 1.0; Prng.float rng 1.0 ] in
  let c = cell (Point.to_grid p) in
  if Hashtbl.mem o.cells c || Hashtbl.mem avoid c then fresh_point o rng ~avoid else p

(* Depth of the smallest compressed-quadtree node cube containing [q],
   by brute force: a cube of [q] is a node when it is the root, the
   stored leaf cell of [q], or its points occupy two or more of its
   child quadrants. *)
let locate_depth o q =
  let g = Point.to_grid q in
  let qx = g.(0) and qy = g.(1) in
  let masks = Array.make bits 0 and maxc = ref (-1) in
  iter_grid o (fun x y ->
      let c = bits - bitlen (max (x lxor qx) (y lxor qy)) in
      if c > !maxc then maxc := c;
      if c < bits then begin
        let b = bits - 1 - c in
        let child = ((x lsr b) land 1) lor (((y lsr b) land 1) lsl 1) in
        masks.(c) <- masks.(c) lor (1 lsl child)
      end);
  if !maxc = bits then bits
  else begin
    let popcount m = (m land 1) + ((m lsr 1) land 1) + ((m lsr 2) land 1) + ((m lsr 3) land 1) in
    let d = ref (bits - 1) in
    while !d > 0 && popcount masks.(!d) + (if !maxc >= !d + 1 then 1 else 0) < 2 do
      decr d
    done;
    !d
  end

let box_count o lo hi =
  let glo = Point.to_grid lo and ghi = Point.to_grid hi in
  let c = ref 0 in
  iter_grid o (fun x y -> if x >= glo.(0) && x <= ghi.(0) && y >= glo.(1) && y <= ghi.(1) then incr c);
  !c

(* The k smallest squared distances from [q] to stored grid-cell centres,
   computed as [Point.dist_sq (Point.of_grid g) q] is. *)
let knn_dists o q k =
  let best = Array.make k infinity in
  let gs = float_of_int Point.grid_size in
  iter_grid o (fun x y ->
      let dx = ((float_of_int x +. 0.5) /. gs) -. q.(0) and dy = ((float_of_int y +. 0.5) /. gs) -. q.(1) in
      let d = 0.0 +. (dx *. dx) +. (dy *. dy) in
      if d < best.(k - 1) then begin
        let i = ref (k - 1) in
        while !i > 0 && best.(!i - 1) > d do
          best.(!i) <- best.(!i - 1);
          decr i
        done;
        best.(!i) <- d
      end);
  Array.to_list best |> List.filter Float.is_finite

type st = {
  p : params;
  o : oracle;
  qpts : Point.t array;
  gen : Prng.t;
  mutable scans : int;
  mutable locs : int;
  mutable box_hits : int;
  mutable boxes : int;
}

let inputs p ~seed =
  let pts = W.clustered_points ~seed ~n:p.n ~dim:2 ~clusters ~radius in
  let qpts = W.uniform_query_points ~seed:(seed + 201) ~n:65536 ~dim:2 in
  (pts, qpts)

let new_st p ~seed pts qpts =
  { p; o = oracle_of pts; qpts; gen = Prng.create (seed + 203); scans = 0; locs = 0; box_hits = 0; boxes = 0 }

let clamp x = Float.max 0.0 (Float.min (1.0 -. epsilon_float) x)

let next st =
  let rng = st.gen in
  let r = Prng.float rng 1.0 in
  if r < 0.4 then Locate st.qpts.(Prng.int rng (Array.length st.qpts))
  else if r < 0.65 then begin
    let c = st.o.base.(Prng.int rng (Array.length st.o.base)) in
    let h = box_half st.p in
    Box
      ( Point.create [ clamp (c.(0) -. h); clamp (c.(1) -. h) ],
        Point.create [ clamp (c.(0) +. h); clamp (c.(1) +. h) ] )
  end
  else if r < 0.9 then Knn st.qpts.(Prng.int rng (Array.length st.qpts))
  else if st.o.nfresh = 0 || Prng.bool rng then
    Insert (fresh_point st.o rng ~avoid:(Hashtbl.create 1))
  else Remove st.o.fresh.(Prng.int rng st.o.nfresh)

let digest_points d ps = List.fold_left (fun d p -> mix d (cell (Point.to_grid p))) d ps

(* Scans and locates are checked by brute force on a sample: every 16th
   scan and every 64th locate. Cell consistency is checked on every
   locate. *)
let exec ctx st h ~qrng ~record:keep acc i op ~parent ~gate =
  if keep then acc.ops <- op :: acc.ops;
  let o = st.o in
  let stored p = Hashtbl.mem o.cells (cell (Point.to_grid p)) in
  match op with
  | Locate q -> (
      match timed ctx "hierarchy.query" ~parent ~op:i (fun () -> H.query h ~rng:qrng q) with
      | exception e -> fail ctx "locate: %s" (Printexc.to_string e)
      | (ans, stats), dt, dw ->
          acc.ranges_visited <- acc.ranges_visited + stats.ranges_visited;
          let pc = Option.map (fun p -> cell (Point.to_grid p)) ans.Inst.cell_point in
          record acc Query ~gate ~dt ~dw ~msgs:stats.messages
            ~answer:(mix ans.cell_depth (Option.value pc ~default:(-1)));
          let qc = cell (Point.to_grid q) in
          let ok_cell =
            match pc with None -> not (Hashtbl.mem o.cells qc) | Some c -> c = qc && Hashtbl.mem o.cells c
          in
          st.locs <- st.locs + 1;
          if not ok_cell then fail ctx "locate: wrong leaf cell"
          else if st.locs land 63 = 0 && ans.cell_depth <> locate_depth o q then
            fail ctx "locate: wrong cell depth %d" ans.cell_depth)
  | Box (lo, hi) -> (
      let s = Inst.Box { lo; hi; limit = box_limit } in
      match timed ctx "hierarchy.scan" ~parent ~op:i (fun () -> H.scan h ~rng:qrng s) with
      | exception e -> fail ctx "box: %s" (Printexc.to_string e)
      | (Inst.Box_hits { count; sample }, stats), dt, dw ->
          record acc Scan ~gate ~dt ~dw ~msgs:stats.messages ~answer:(digest_points count sample);
          st.box_hits <- st.box_hits + count;
          st.boxes <- st.boxes + 1;
          st.scans <- st.scans + 1;
          if List.length sample <> min count box_limit then fail ctx "box: sample size"
          else if not (List.for_all stored sample) then fail ctx "box: sample point not stored"
          else if st.scans land 15 = 0 && count <> box_count o lo hi then fail ctx "box: wrong count"
      | (Inst.Knn_hits _, _), _, _ -> fail ctx "box: answered as k-NN")
  | Knn q -> (
      let s = Inst.Knn { center = q; k = knn_k } in
      match timed ctx "hierarchy.scan" ~parent ~op:i (fun () -> H.scan h ~rng:qrng s) with
      | exception e -> fail ctx "knn: %s" (Printexc.to_string e)
      | (Inst.Knn_hits hits, stats), dt, dw ->
          let pts = List.map fst hits in
          record acc Scan ~gate ~dt ~dw ~msgs:stats.messages ~answer:(digest_points 0 pts);
          st.scans <- st.scans + 1;
          let got = List.sort Float.compare (List.map (fun p -> Point.dist_sq p q) pts) in
          if List.length hits <> min knn_k (size o) then fail ctx "knn: wrong length"
          else if not (List.for_all stored pts) then fail ctx "knn: point not stored"
          else if st.scans land 15 = 0 && got <> knn_dists o q knn_k then fail ctx "knn: not nearest"
      | (Inst.Box_hits _, _), _, _ -> fail ctx "knn: answered as box")
  | Insert k | Remove k -> (
      let ins = match op with Insert _ -> true | _ -> false in
      let name = if ins then "hierarchy.insert" else "hierarchy.remove" in
      match timed ctx name ~parent ~op:i (fun () -> if ins then H.insert h k else H.remove h k) with
      | exception e -> fail ctx "update: %s" (Printexc.to_string e)
      | msgs, dt, dw ->
          record acc Update ~gate ~dt ~dw ~msgs ~answer:0;
          if ins then add_fresh o k else remove_fresh o k;
          if H.size h <> size o then fail ctx "update: wrong size")

let build ctx p ~seed ~parent ~census pts =
  Skeleton.build ctx ~hosts:p.n ~name:"hierarchy.build" ~parent ~census (fun net -> H.build ~net ~seed pts)

let gate_run ctx st (h, net) ~seed =
  let qrng = Prng.create (seed + 204) in
  Skeleton.gate_run ctx ~gate_ops:st.p.gate_ops net (fun acc i ->
      exec ctx st h ~qrng ~record:false acc i (next st))

let gate_only ctx p ~seed =
  let pts, qpts = inputs p ~seed in
  let s, _, _ = build ctx p ~seed ~parent:0 ~census:false pts in
  let st = new_st p ~seed pts qpts in
  let g, _ = gate_run ctx st s ~seed in
  (g, fst s, st)

(* Morton key of a 2-d grid point: the z-order Cqtree's bulk build sorts by. *)
let morton g =
  let r = ref 0 in
  for b = bits - 1 downto 0 do
    r := (!r lsl 2) lor (((g.(1) lsr b) land 1) lsl 1) lor ((g.(0) lsr b) land 1)
  done;
  !r

let run ctx p =
  let seed = ctx.seed in
  let pts, qpts = inputs p ~seed in
  let g0 = Gcprobe.snap () in
  (* The traced run keeps a twin build to replay the gate untraced. *)
  let (h, net), twin, setup_s, wpk =
    setup ctx ~builds:p.builds ~twin:(ctx.spans <> None) (build ctx p ~seed pts)
  in
  let g1 = Gcprobe.snap () in
  let untraced =
    Option.map (fun tw -> untraced_gate ctx (fun quiet -> gate_run quiet (new_st p ~seed pts qpts) tw ~seed)) twin
  in
  settle ctx;
  let g2 = Gcprobe.snap () in
  let st = new_st p ~seed pts qpts in
  let acc = new_acc () in
  let qrng = Prng.create (seed + 204) in
  let traced = ctx.spans <> None in
  let s =
    run_stream ctx net acc ~untraced ~gate_ops:p.gate_ops ~step:(fun acc i ->
        exec ctx st h ~qrng ~record:traced acc i (next st))
  in
  let g3 = Gcprobe.snap () in
  settle ctx;
  let g4 = Gcprobe.snap () in
  (* Batch epochs at jobs = 1: fresh uniform points in and out again. *)
  let brng = Prng.create (seed + 205) in
  let epochs =
    phase ctx "batch" (fun ph ->
        List.init p.epochs (fun _ ->
            let keys =
              bench ctx "bench.gen" ~parent:ph (fun () ->
                  let avoid = Hashtbl.create (2 * p.batch) in
                  Array.init p.batch (fun _ ->
                      let q = fresh_point st.o brng ~avoid in
                      Hashtbl.replace avoid (cell (Point.to_grid q)) ();
                      q))
            in
            ctx.attempted <- ctx.attempted + 2;
            let ins, ti = time_span ctx "hierarchy.insert_batch" ~parent:ph (fun () -> H.insert_batch h keys) in
            let rem, tr = time_span ctx "hierarchy.remove_batch" ~parent:ph (fun () -> H.remove_batch h keys) in
            if ins <> p.batch || rem <> p.batch || H.size h <> size st.o then
              fail ctx "batch epoch: inserted %d removed %d of %d" ins rem p.batch;
            (keys, ti, tr)))
  in
  let g5 = Gcprobe.snap () in
  phase ctx "check" (fun ph ->
      bench ctx "hierarchy.check_invariants" ~parent:ph (fun () ->
          check_invariants ctx "hierarchy invariants" (fun () -> H.check_invariants h)));
  let e2e = e2e_metrics ~setup_s ~wpk ~batch_keys_per_s:(keys_per_s epochs) acc s in
  let layers =
    match ctx.spans with
    | None -> []
    | Some sp ->
        (* Engine replays: the same points and stream ops straight through
           one bare Cqtree, the structure under every level set. *)
        let engine_build_s =
          replay_timed ctx "cqtree.build" ~times:p.builds (fun () -> ignore (Cq.of_sorted ~dim:2 pts))
        in
        let decorated =
          phase ctx "replay" (fun ph ->
              bench ctx "bench.gen" ~parent:ph (fun () ->
                  Array.map (fun q -> let g = Point.to_grid q in (morton g, g)) pts))
        in
        let sort_s =
          replay_timed ctx "presort.sort" ~times:p.builds (fun () ->
              ignore (Presort.sorted_distinct ~cmp:(fun (a, _) (b, _) -> Int.compare a b) decorated))
        in
        let eng = phase ctx "replay" (fun ph -> bench ctx "cqtree.build" ~parent:ph (fun () -> Cq.of_sorted ~dim:2 pts)) in
        let engine =
          replay ctx "cqtree.replay" acc ~classes:4
            ~cls:(function Locate _ -> 0 | Box _ -> 1 | Knn _ -> 2 | _ -> 3)
            (function
              | Locate q -> ignore (Cq.locate eng q)
              | Box (lo, hi) -> ignore (Cq.range_scan eng ~lo ~hi ~limit:box_limit)
              | Knn q -> ignore (Cq.knn eng q ~k:knn_k)
              | Insert k -> ignore (Cq.insert_delta eng k)
              | Remove k -> ignore (Cq.remove_delta eng k))
        in
        let net_us, network = network_metrics ctx ~hosts:p.n net s in
        let outer = outer_time sp [ "hierarchy.query"; "hierarchy.scan"; "hierarchy.insert"; "hierarchy.remove" ] in
        hierarchy_metrics sp acc
          ~sizes:(List.concat (List.init (H.levels h) (fun l -> H.level_set_sizes h l)))
          ~storage:(H.total_storage h) ~size:(H.size h) ~engine_build_s ~epochs
          ~self_share:(self_share ~outer ~engine ~net_us s)
        @ [
            m "cqtree.build_s" "s" engine_build_s;
            m "cqtree.locate_us" "us" (p50_us engine.(0));
            m "cqtree.box_us" "us" (p50_us engine.(1));
            m "cqtree.knn_us" "us" (p50_us engine.(2));
            m "cqtree.update_us" "us" (p50_us engine.(3));
            m "presort.sort_s" "s" sort_s;
            m "pool.jobs" "count" 1.0;
          ]
        @ network
        @ gc_metrics "setup" (Gcprobe.diff g0 g1)
        @ gc_metrics "stream" (Gcprobe.diff g2 g3)
        @ gc_metrics "batch" (Gcprobe.diff g4 g5)
        @ trace_metrics sp ~untraced s
  in
  let mean_hits = float_of_int st.box_hits /. float_of_int (max 1 st.boxes) in
  { e2e; layers; info = info ~n:p.n acc s @ [ ("mean_box_hits", Printf.sprintf "%.1f" mean_hits) ] }
