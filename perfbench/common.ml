(* Shared machinery of the benchmark: clock, latency samples, spans, GC
   probes, the run context and the result record. Nothing here calls the
   library under test. *)

module Clock = struct
  external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

  (* Seconds on the monotonic clock. *)
  let now () = float_of_int (now_ns ()) *. 1e-9
end

(* A growable buffer of float samples with nearest-rank quantiles. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  let sorted t =
    let b = Array.sub t.a 0 t.n in
    Array.sort Float.compare b;
    b

  (* Nearest rank: the smallest sample with at least [q] of the samples at
     or below it. *)
  let quantile_of_sorted b q =
    let n = Array.length b in
    if n = 0 then nan
    else b.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

  let quantile t q = quantile_of_sorted (sorted t) q
  let median t = quantile t 0.5
  let of_list xs =
    let t = create () in
    List.iter (add t) xs;
    t
end

let median_of xs = Samples.median (Samples.of_list xs)

(* Spans recorded by the benchmark around each call into a layer. Each
   span has a name, start, end, parent span and op id; they stay in
   memory until [write]. Span 0 is never used so that 0 can mean "no
   parent". *)
module Spans = struct
  type t = {
    names : (string, int) Hashtbl.t;
    mutable name_list : string array;
    mutable name : int array;
    mutable parent : int array;
    mutable op : int array;
    mutable start : float array;
    mutable stop : float array;
    mutable len : int;
  }

  let create () =
    let cap = 4096 in
    {
      names = Hashtbl.create 32;
      name_list = [||];
      name = Array.make cap 0;
      parent = Array.make cap 0;
      op = Array.make cap 0;
      start = Array.make cap 0.0;
      stop = Array.make cap 0.0;
      len = 1;
    }

  let intern t s =
    match Hashtbl.find_opt t.names s with
    | Some i -> i
    | None ->
        let i = Array.length t.name_list in
        Hashtbl.add t.names s i;
        t.name_list <- Array.append t.name_list [| s |];
        i

  let grow t =
    let cap = 2 * Array.length t.name in
    let gi a = let b = Array.make cap 0 in Array.blit a 0 b 0 t.len; b in
    let gf a = let b = Array.make cap 0.0 in Array.blit a 0 b 0 t.len; b in
    t.name <- gi t.name;
    t.parent <- gi t.parent;
    t.op <- gi t.op;
    t.start <- gf t.start;
    t.stop <- gf t.stop

  (* Record a finished span; returns its id. *)
  let add t name ~parent ~op ~start ~stop =
    if t.len = Array.length t.name then grow t;
    let i = t.len in
    t.name.(i) <- intern t name;
    t.parent.(i) <- parent;
    t.op.(i) <- op;
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    t.len <- i + 1;
    i

  (* Open a span whose end is not known yet; close it with [close]. *)
  let open_ t name ~parent ~op = add t name ~parent ~op ~start:(Clock.now ()) ~stop:nan
  let close t id = t.stop.(id) <- Clock.now ()
  let duration t i = t.stop.(i) -. t.start.(i)

  (* Durations of every span with this name. *)
  let durations t name =
    let s = Samples.create () in
    (match Hashtbl.find_opt t.names name with
    | None -> ()
    | Some k ->
        for i = 1 to t.len - 1 do
          if t.name.(i) = k then Samples.add s (duration t i)
        done);
    s

  let total t name = Samples.sum (durations t name)

  (* The share of each span's wall clock that its direct children cover,
     minimised over the spans named in [phases]. *)
  let min_coverage t phases =
    let covered = Array.make t.len 0.0 in
    for i = 1 to t.len - 1 do
      let p = t.parent.(i) in
      if p > 0 then covered.(p) <- covered.(p) +. duration t i
    done;
    let worst = ref infinity in
    List.iter
      (fun ph ->
        match Hashtbl.find_opt t.names ph with
        | None -> ()
        | Some k ->
            for i = 1 to t.len - 1 do
              if t.name.(i) = k && duration t i > 0.0 then
                worst := Float.min !worst (covered.(i) /. duration t i)
            done)
      phases;
    !worst

  (* One line per span: id, parent, op, name, start (s, from the first
     span), duration (µs). *)
  let write t path =
    let oc = open_out path in
    let t0 = if t.len > 1 then t.start.(1) else 0.0 in
    output_string oc "id\tparent\top\tname\tstart_s\tdur_us\n";
    for i = 1 to t.len - 1 do
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.9f\t%.3f\n" i t.parent.(i) t.op.(i)
        t.name_list.(t.name.(i)) (t.start.(i) -. t0)
        (duration t i *. 1e6)
    done;
    close_out oc
end

(* GC counters per phase: [Gc.quick_stat] deltas, plus stop-the-world
   pause time read from the runtime's event ring. *)
module Gcprobe = struct
  module RE = Runtime_events

  let pause = ref 0.0
  let lost = ref 0
  let depth = Array.make 128 0
  let counted = Array.make 128 false
  let began = Array.make 128 0L

  let explicit = function
    | RE.EV_EXPLICIT_GC_SET | RE.EV_EXPLICIT_GC_STAT | RE.EV_EXPLICIT_GC_MINOR
    | RE.EV_EXPLICIT_GC_MAJOR | RE.EV_EXPLICIT_GC_FULL_MAJOR | RE.EV_EXPLICIT_GC_COMPACT
    | RE.EV_EXPLICIT_GC_MAJOR_SLICE | RE.EV_DOMAIN_CONDITION_WAIT ->
        true
    | _ -> false

  (* Outermost runtime phases only; the benchmark's own explicit
     collections and idle waits are not pauses of the program. *)
  let callbacks =
    RE.Callbacks.create
      ~runtime_begin:(fun d ts ph ->
        if d < 128 then begin
          if depth.(d) = 0 then begin
            counted.(d) <- not (explicit ph);
            began.(d) <- RE.Timestamp.to_int64 ts
          end;
          depth.(d) <- depth.(d) + 1
        end)
      ~runtime_end:(fun d ts _ ->
        if d < 128 && depth.(d) > 0 then begin
          depth.(d) <- depth.(d) - 1;
          if depth.(d) = 0 && counted.(d) then
            pause :=
              !pause +. (Int64.to_float (Int64.sub (RE.Timestamp.to_int64 ts) began.(d)) *. 1e-9)
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let cursor = ref None
  let busy = Atomic.make false

  (* Drains the ring unless a drain is already under way: a timer tick
     may arrive while [snap] is draining. *)
  let poll () =
    match !cursor with
    | Some c when Atomic.compare_and_set busy false true ->
        Fun.protect
          ~finally:(fun () -> Atomic.set busy false)
          (fun () -> ignore (RE.read_poll c callbacks None))
    | _ -> ()

  (* The ring file holds one ring per possible domain (128 in OCaml 5.1),
     so it is kept small (OCAMLRUNPARAM e=12: 4 MiB in all) and drained on
     a 1 ms interval timer, whose handler runs at the next poll point of
     the running code; a long library call such as a build would
     otherwise overrun the ring between the benchmark's own polls. *)
  let start () =
    RE.start ();
    cursor := Some (RE.create_cursor None);
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> poll ()));
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.001; it_value = 0.001 })

  let stop () =
    if !cursor <> None then begin
      ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
      Sys.set_signal Sys.sigalrm Sys.Signal_default;
      poll ()
    end

  type snap = {
    minor_words : float;
    major_words : float;
    minor_collections : int;
    major_collections : int;
    pause_s : float;
  }

  let snap () =
    poll ();
    let s = Gc.quick_stat () in
    {
      minor_words = s.minor_words;
      major_words = s.major_words;
      minor_collections = s.minor_collections;
      major_collections = s.major_collections;
      pause_s = !pause;
    }

  let diff a b =
    {
      minor_words = b.minor_words -. a.minor_words;
      major_words = b.major_words -. a.major_words;
      minor_collections = b.minor_collections - a.minor_collections;
      major_collections = b.major_collections - a.major_collections;
      pause_s = b.pause_s -. a.pause_s;
    }
end

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* One benchmark run. [spans] is [Some] only in the traced run. *)
type ctx = {
  seed : int;
  seconds : float;
  jobs : int;
  nproc : int;
  spans : Spans.t option;
  mutable attempted : int;
  mutable failed : int;
}

let make_ctx ~seed ~seconds ~jobs ~trace =
  {
    seed;
    seconds;
    jobs;
    nproc = Domain.recommended_domain_count ();
    spans = (if trace then Some (Spans.create ()) else None);
    attempted = 0;
    failed = 0;
  }

(* Count a failed operation; the first few reasons go to stderr. *)
let fail ctx fmt =
  Printf.ksprintf
    (fun s ->
      ctx.failed <- ctx.failed + 1;
      if ctx.failed <= 10 then prerr_endline ("perfbench: FAILED " ^ s))
    fmt

(* Run a whole-structure check (invariants, digests) as one attempted
   operation. *)
let check ctx what ok =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then fail ctx "%s" what

let check_invariants ctx what f =
  ctx.attempted <- ctx.attempted + 1;
  match f () with () -> () | exception e -> fail ctx "%s: %s" what (Printexc.to_string e)

let span_open ctx name ~parent =
  match ctx.spans with Some s -> Spans.open_ s name ~parent ~op:0 | None -> 0

let span_close ctx id = match ctx.spans with Some s -> Spans.close s id | None -> ()

let span_add ctx name ~parent ~op ~start ~stop =
  match ctx.spans with Some s -> ignore (Spans.add s name ~parent ~op ~start ~stop) | None -> ()

(* [phase ctx name f] runs [f parent] inside a span named [name]. *)
let phase ctx name f =
  let id = span_open ctx name ~parent:0 in
  let r = f id in
  span_close ctx id;
  r

(* Time one call. Returns the result, the elapsed seconds and the minor
   words the call allocated; records a span when tracing. *)
let timed ctx name ~parent ~op f =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now () in
  let r = f () in
  let t1 = Clock.now () in
  let w1 = Gc.minor_words () in
  span_add ctx name ~parent ~op ~start:t0 ~stop:t1;
  (r, t1 -. t0, w1 -. w0)

(* Wall clock of [f ()], as a span child of [parent]. *)
let time_span ctx name ~parent f =
  let r, dt, _ = timed ctx name ~parent ~op:0 f in
  (r, dt)

(* [f ()] inside a span, for work whose time is not itself a metric. *)
let bench ctx name ~parent f = fst (time_span ctx name ~parent f)

(* The phase spans whose wall clock child spans must cover. *)
let phases = [ "setup"; "stream"; "batch"; "check"; "replay" ]

(* Start the next phase from a fresh major cycle, whatever the phase
   before it left behind, so that its GC work does not depend on where an
   earlier cycle stood. *)
let settle ctx = phase ctx "settle" (fun _ -> Gc.full_major ())

(* Live words after a full major collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).live_words

(* An order-sensitive running digest of ints. *)
let mix d x = Skipweb_util.Prng.hash2 d x

(* A digest of every host's charged memory. *)
let memory_digest net =
  let d = ref (Skipweb_net.Network.total_memory net) in
  for h = 0 to Skipweb_net.Network.host_count net - 1 do
    d := mix !d (Skipweb_net.Network.memory net h)
  done;
  !d

let ceil_log2 n =
  let r = ref 0 in
  while 1 lsl !r < n do
    incr r
  done;
  !r

(* Sessions captured by the network tap during the traced gate: each is
   the visited host sequence, oldest first, and its message count. *)
type captured = { mutable sessions : (int array * int) list }

let capture_tap net =
  let c = { sessions = [] } in
  Skipweb_net.Network.set_tap net
    (Some (fun ~visits ~msgs -> c.sessions <- (Array.of_list (List.rev visits), msgs) :: c.sessions));
  c

(* Replay captured sessions through start/goto/finish on a fresh network
   of [hosts] hosts, [rounds] times. Returns (µs per session, whether the
   replayed message total matches the captured one). *)
let network_replay ~hosts ~rounds c =
  let sessions = Array.of_list (List.rev c.sessions) in
  let want = Array.fold_left (fun a (_, m) -> a + m) 0 sessions in
  let module N = Skipweb_net.Network in
  let times = ref [] and ok = ref true in
  for _ = 1 to rounds do
    let net = N.create ~hosts in
    let t0 = Clock.now () in
    Array.iter
      (fun (vs, _) ->
        if Array.length vs > 0 then begin
          let s = N.start net vs.(0) in
          for i = 1 to Array.length vs - 1 do
            N.goto s vs.(i)
          done;
          N.finish s
        end)
      sessions;
    let dt = Clock.now () -. t0 in
    times := dt :: !times;
    if N.total_messages net <> want then ok := false
  done;
  let per = median_of !times /. float_of_int (max 1 (Array.length sessions)) in
  (per *. 1e6, !ok)

(* GC metrics of one phase, as the per-layer names gc.<phase>.*. *)
let gc_metrics phase (d : Gcprobe.snap) =
  let p = "gc." ^ phase ^ "." in
  [
    m (p ^ "minor_words") "words" d.minor_words;
    m (p ^ "major_words") "words" d.major_words;
    m (p ^ "minor_collections") "count" (float_of_int d.minor_collections);
    m (p ^ "major_collections") "count" (float_of_int d.major_collections);
    m (p ^ "pause_s") "s" d.pause_s;
  ]

(* What a workload run hands back to main. *)
type result = {
  e2e : metric list;
  layers : metric list;
  info : (string * string) list;
}

(* The closed-loop stream: one caller, op [i] issued only after op [i-1]
   returned. First the [gate_ops] ops of the gate, whose recorded costs
   are a pure function of the seed; [on_gate] runs right after them. Then
   more ops for [ctx.seconds] of wall clock. Returns the number of ops. *)
let stream ctx ~gate_ops ~on_gate ~step =
  phase ctx "stream" (fun ph ->
      let i = ref 0 in
      let one ~gate =
        let op = span_open ctx "op" ~parent:ph in
        ctx.attempted <- ctx.attempted + 1;
        step !i ~parent:op ~gate;
        span_close ctx op;
        incr i
      in
      while !i < gate_ops do
        one ~gate:true
      done;
      on_gate ();
      let t_start = Clock.now () in
      while Clock.now () -. t_start < ctx.seconds do
        one ~gate:false
      done;
      !i)

(* A sorted, growable int set: the keys a stream inserted on top of the
   initial key set. Small (hundreds of keys), so a sorted array with
   blits is the simplest exact oracle. *)
module Fresh = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }
  let size t = t.n
  let get t i = t.a.(i)

  (* First index with a.(i) >= k. *)
  let lower_bound a n k =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) < k then lo := mid + 1 else hi := mid
    done;
    !lo

  let mem t k =
    let i = lower_bound t.a t.n k in
    i < t.n && t.a.(i) = k

  let add t k =
    let i = lower_bound t.a t.n k in
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Array.blit t.a i t.a (i + 1) (t.n - i);
    t.a.(i) <- k;
    t.n <- t.n + 1

  let remove t k =
    let i = lower_bound t.a t.n k in
    Array.blit t.a (i + 1) t.a i (t.n - i - 1);
    t.n <- t.n - 1
end

(* Oracle for 1-d answers: the initial sorted keys (never removed) plus
   the fresh keys the stream inserted. *)
module Oracle1d = struct
  type t = { base : int array; fresh : Fresh.t }

  let create base = { base; fresh = Fresh.create () }
  let size t = Array.length t.base + t.fresh.n
  let lb a n k = Fresh.lower_bound a n k

  let mem t k =
    let nb = Array.length t.base in
    let i = lb t.base nb k in
    (i < nb && t.base.(i) = k) || Fresh.mem t.fresh k

  (* Largest key <= q in a sorted prefix. *)
  let pred_in a n q =
    let i = lb a n (q + 1) in
    if i > 0 then Some a.(i - 1) else None

  let succ_in a n q =
    let i = lb a n q in
    if i < n then Some a.(i) else None

  let better pick a b =
    match (a, b) with None, x | x, None -> x | Some x, Some y -> Some (pick x y)

  let predecessor t q =
    better max (pred_in t.base (Array.length t.base) q) (pred_in t.fresh.a t.fresh.n q)

  let successor t q =
    better min (succ_in t.base (Array.length t.base) q) (succ_in t.fresh.a t.fresh.n q)

  (* Nearest stored key; ties go to the predecessor. *)
  let nearest t q =
    match (predecessor t q, successor t q) with
    | None, x | x, None -> x
    | Some p, Some s -> if q - p <= s - q then Some p else Some s

  let count_in a n lo hi = if hi < lo then 0 else lb a n (hi + 1) - lb a n lo
  let count t lo hi = count_in t.base (Array.length t.base) lo hi + count_in t.fresh.a t.fresh.n lo hi

  (* Keys in [lo, hi], ascending. *)
  let keys t lo hi =
    let slice a n =
      let i = lb a n lo and j = lb a n (hi + 1) in
      Array.to_list (Array.sub a i (j - i))
    in
    List.merge compare (slice t.base (Array.length t.base)) (slice t.fresh.a t.fresh.n)

  (* A key in [0, bound) that is not stored. *)
  let rec fresh_key t rng bound =
    let k = Skipweb_util.Prng.int rng bound in
    if mem t k then fresh_key t rng bound else k

  (* [count] distinct keys, none stored, in random order. *)
  let fresh_batch t rng bound count =
    let seen = Hashtbl.create (2 * count) in
    Array.init count (fun _ ->
        let rec draw () =
          let k = fresh_key t rng bound in
          if Hashtbl.mem seen k then draw ()
          else begin
            Hashtbl.add seen k ();
            k
          end
        in
        draw ())
end

(* Latency percentiles, in µs. The samples are cut into up to five
   consecutive windows of at least 1000 samples each, so that every
   window has at least ten samples beyond its 99th percentile. The median
   is the median of the windows' medians. The 99th percentile is the
   lowest of the windows' 99th percentiles: interference from outside the
   process only adds latency, and on a shared machine it lands on the
   tail of whichever windows it hits, so the quietest window is the
   steadiest estimate of the program's own tail. *)
let us x = x *. 1e6

let windows q s =
  let n = Samples.count s in
  let w = max 1 (min 5 (n / 1000)) in
  List.init w (fun k ->
      let lo = k * n / w and hi = (k + 1) * n / w in
      let b = Array.sub s.Samples.a lo (hi - lo) in
      Array.sort Float.compare b;
      Samples.quantile_of_sorted b q)

let p50_us s = us (median_of (windows 0.5 s))
let p99_us s = us (List.fold_left Float.min infinity (windows 0.99 s))
