(* Pinned simulated costs of the benchmark's workloads at small n and the
   default seed (1): mean messages per point query and per update over
   the gate, and the largest per-host memory after it. They are pure
   functions of the seed, so any change to them is a change to the cost
   model. Also checks that the gate's digest does not depend on tracing,
   and that oned_mixed's batch epoch leaves the same digest at jobs 1
   and 2. *)

open Perfbench
open Common

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" what
  end

let ctx ~trace = make_ctx ~seed:1 ~seconds:1.0 ~jobs:1 ~trace

let pin name (qm, um, mh) ~query_messages ~update_messages ~max_host_units =
  Printf.printf "%s: query_messages %.17g update_messages %.17g max_host_units %d\n" name qm um mh;
  expect (name ^ " query_messages") (qm = query_messages);
  expect (name ^ " update_messages") (um = update_messages);
  expect (name ^ " max_host_units") (mh = max_host_units)

let clean name c = expect (Printf.sprintf "%s: %d of %d ops failed" name c.failed c.attempted) (c.failed = 0)

let () =
  (* oned_mixed *)
  let p = { Oned.default with n = 2000; gate_ops = 400; batch = 200 } in
  let c = ctx ~trace:false and ct = ctx ~trace:true in
  let g, h, st = Oned.gate_only c p ~seed:1 in
  let gt, _, _ = Oned.gate_only ct p ~seed:1 in
  clean "oned_mixed" c;
  clean "oned_mixed traced" ct;
  pin "oned_mixed"
    (g.query_messages, g.update_messages, g.max_host_units)
    ~query_messages:12.008620689655173 ~update_messages:35.733333333333334 ~max_host_units:41;
  expect "oned_mixed traced digest" (g.digest = gt.digest);
  Oned.H.check_invariants h;
  let batch = Oracle1d.fresh_batch st.oracle (Skipweb_util.Prng.create 5) (Oned.bound p) p.batch in
  let epoch jobs =
    let c = ctx ~trace:false in
    let keys, zipf, qmix = Oned.inputs p ~seed:1 in
    let st = Oned.new_st p ~seed:1 keys zipf qmix in
    let s, _, _ = Oned.build c p ~seed:1 ~parent:0 ~census:false keys in
    let pool = if jobs > 1 then Some (Skipweb_util.Pool.create ~jobs) else None in
    let _, _, d = Oned.epoch c st s ~pool ~parent:0 batch in
    Option.iter Skipweb_util.Pool.shutdown pool;
    clean (Printf.sprintf "oned_mixed epoch jobs=%d" jobs) c;
    d
  in
  expect "oned_mixed batch digest jobs 1 = jobs 2" (epoch 1 = epoch 2);
  (* quad_scan *)
  let p = { Quad.default with n = 1000; gate_ops = 300 } in
  let c = ctx ~trace:false and ct = ctx ~trace:true in
  let g, h, _ = Quad.gate_only c p ~seed:1 in
  let gt, _, _ = Quad.gate_only ct p ~seed:1 in
  clean "quad_scan" c;
  clean "quad_scan traced" ct;
  pin "quad_scan"
    (g.query_messages, g.update_messages, g.max_host_units)
    ~query_messages:13.009433962264151 ~update_messages:35.185185185185183 ~max_host_units:31;
  expect "quad_scan traced digest" (g.digest = gt.digest);
  Quad.H.check_invariants h;
  (* blocked_serve *)
  let p = { Blocked.default with n = 1024; gate_ops = 200; update_every = 50 } in
  let c = ctx ~trace:false and ct = ctx ~trace:true in
  let g, t, _ = Blocked.gate_only c p ~seed:1 in
  let gt, _, _ = Blocked.gate_only ct p ~seed:1 in
  clean "blocked_serve" c;
  clean "blocked_serve traced" ct;
  pin "blocked_serve"
    (g.query_messages, g.update_messages, g.max_host_units)
    ~query_messages:1.6690647482014389 ~update_messages:5.0 ~max_host_units:396;
  expect "blocked_serve traced digest" (g.digest = gt.digest);
  Skipweb_core.Blocked1d.check_invariants t;
  if !failures > 0 then exit 1
