module Network = Skipweb_net.Network
module Trace = Skipweb_net.Trace
module Placement = Skipweb_net.Placement
module Membership = Skipweb_util.Membership
module Prng = Skipweb_util.Prng
module L = Skipweb_linklist.Linklist
module O = Skipweb_util.Ordseq

(* One basic block and everything a cache copy of its group needs. A
   block's {e group} is the block plus every cone interval it drags
   along; the group is what the read cache copies as a whole. *)
type block = {
  j : int;  (* index within its basic set, in code order *)
  owners : Network.host array;  (* primary first *)
  mutable units : int;  (* ranges one copy of the group stores; set by the rebuild's cone scan *)
  mutable cache : Network.host array;
      (* the group's k - 1 cache hosts; [||] when the group is uncached *)
}

(* A cone interval: the codes [lo, hi] of one non-basic set, stored with
   the basic block below it. *)
type cone = { lo : int; hi : int; block : block }

(* Membership bits are derived from the key itself, so an element keeps its
   level path across rebuilds. Every level-indexed array has [top + 1]
   rows; row [l] has one slot per prefix, [2^l] of them, and an empty set
   is [[||]]. *)
type t = {
  net : Network.t;
  vecs : Membership.t;
  m : int;  (* per-host memory target M *)
  r : int;  (* replication factor: owners per block / cone interval *)
  stride : int;  (* L = ceil(log2 M): basic levels are multiples *)
  mutable bsize : int;  (* ranges per block at basic levels *)
  keys : O.t;  (* the ground set, chunked sorted sequence *)
  mutable top : int;  (* K = ceil(log2 n) *)
  mutable sets : int array array array;  (* level -> prefix -> sorted keys *)
  mutable blocks : block array array array;
      (* basic level -> prefix -> blocks by index; [||] rows at non-basic levels *)
  mutable cones : cone array array array;
      (* non-basic level -> prefix -> cone intervals in descending block
         index, so [lo] and [hi] are non-increasing along the array and
         [hosts_of] finds the covering slice by binary search; [||] rows at
         basic levels *)
  (* Read-path level cache: a basic block group whose basic level is below
     [cache_levels] keeps [cache_replicas - 1] whole extra copies on
     distinct live hosts, drawn by a pure collision-skipping hash at
     rebuild time and kept in the block's [cache] field. Caching whole
     groups (not individual levels) preserves the co-location that gives
     Blocked1d its O(log n / log log n) bound: a query reading cache copy s
     of a group still walks the entire group on one host. *)
  mutable cache_levels : int;  (* groups with basic level < this are cached *)
  mutable cache_replicas : int;  (* k: total read copies per cached group *)
  cache_seed : int;
  host_mem : int array;  (* what we charged per host, for rebuilds *)
  mutable pool : Skipweb_util.Pool.t option;  (* fans rebuild phases out when set *)
}

let set_pool t pool = t.pool <- pool

let size t = O.length t.keys
let levels t = t.top + 1
let block_size t = t.bsize

let basic_levels t =
  List.filter (fun l -> l mod t.stride = 0) (List.init (t.top + 1) Fun.id)

(* A key's prefix at the top level. Its level-l prefix is
   [path lsr (t.top - l)], so one path (one hash draw per level) serves
   every level of a descent or a rebuild. *)
let path t key = Membership.prefix t.vecs ~id:key ~len:t.top

let required_top n =
  let rec go k = if 1 lsl k >= max 1 n then k else go (k + 1) in
  go 0

let charge t host units =
  Network.charge_memory t.net host units;
  t.host_mem.(host) <- t.host_mem.(host) + units

let uncharge_all t =
  Array.iteri
    (fun host units -> if units <> 0 then Network.charge_memory t.net host (-units))
    t.host_mem;
  Array.fill t.host_mem 0 (Array.length t.host_mem) 0

(* [f level b arr] for every non-empty set. *)
let iter_sets t f =
  Array.iteri
    (fun level row -> Array.iteri (fun b arr -> if Array.length arr > 0 then f level b arr) row)
    t.sets

(* [f level b blk] for every block. *)
let iter_blocks t f =
  Array.iteri
    (fun level row -> Array.iteri (fun b blks -> Array.iter (f level b) blks) row)
    t.blocks

(* First index in [0, n) where the monotone predicate [p] turns true, or
   [n] if it never does. *)
let first_index n p =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if p mid then hi := mid else lo := mid + 1
  done;
  !lo

(* The code interval of block [j] within its basic set [arr]. *)
let block_codes t arr j =
  (j * t.bsize, min (L.num_ranges arr - 1) (((j + 1) * t.bsize) - 1))

(* ------- the read-path group cache ------- *)

(* The k - 1 cache hosts of one group: pure hash draws salted by the cache
   slot, skipping dead hosts and hosts already holding a copy (an owner or
   an earlier cache slot) — so all r + k - 1 copies of a group sit on
   distinct live hosts, exactly the hierarchy's collision-skipping
   discipline. Pure in (cache_seed, group, live set, owners): [rebuild]
   and [set_cache] always agree on where every copy lives. *)
let draw_cache t ~owners level b j k =
  let hosts = Network.host_count t.net in
  let taken = ref (Array.to_list owners) in
  Array.init (k - 1) (fun s ->
      let rec pick attempt =
        if attempt > 10_000 then failwith "Blocked1d: cache placement exhausted";
        let h =
          Prng.hash3
            (t.cache_seed + ((s + 1) * 0x9e3779) + (attempt * 0x85ebca))
            ((level * 0x100000) + b)
            j
          mod hosts
        in
        if Network.alive t.net h && not (List.mem h !taken) then h else pick (attempt + 1)
      in
      let h = pick 0 in
      taken := h :: !taken;
      h)

(* Charge (or release, [sign = -1]) every cache copy of every cached
   group. *)
let charge_cache t ~sign =
  iter_blocks t (fun _ _ blk -> Array.iter (fun h -> charge t h (sign * blk.units)) blk.cache)

(* (Re)derive every block's cache copies from the current block maps and
   charge them: every eligible group (basic level below the cache window,
   active cache) gets its k - 1 copies, every other group none. Draws are
   pure per group and charges are sums, so iteration order is
   irrelevant. *)
let apply_cache t =
  iter_blocks t (fun level b blk ->
      blk.cache <-
        (if t.cache_replicas > 1 && level < t.cache_levels then
           draw_cache t ~owners:blk.owners level b blk.j t.cache_replicas
         else [||]));
  charge_cache t ~sign:1

(* Key-interval endpoints of a code interval within a set array. *)
let interval_span arr clo chi =
  let lo, _ = L.span arr (L.decode clo) in
  let _, hi = L.span arr (L.decode chi) in
  (lo, hi)

(* Codes of [arr] whose range intersects the closed key interval
   [(lo, hi)] — the one-level conflict projection; conflict lists being
   contiguous is what makes cones intervals. *)
let codes_touching arr (lo, hi) =
  let m = Array.length arr in
  let clo =
    match lo with
    | L.Neg_inf -> 0
    | L.Key k -> 2 * O.array_lower_bound arr k
    | L.Pos_inf -> 2 * m
  in
  let chi =
    match hi with
    | L.Neg_inf -> 0
    | L.Key k -> 2 * (O.array_upper_index arr k + 1)
    | L.Pos_inf -> 2 * m
  in
  (clo, chi)

(* Run [f i] for every i in [0, n) — over the pool when one is set, inline
   otherwise. Rebuild work items (levels, blocks) cost about the same, so
   the weights are uniform; dynamic dispatch still keeps every domain busy
   until the batch drains. *)
let for_items t n f =
  match t.pool with
  | None ->
      for i = 0 to n - 1 do
        f i
      done
  | Some p -> Skipweb_util.Pool.parallel_for_tasks p ~weights:(Array.make (max n 1) 1) f

(* A rebuild parallelizes in two fan-out phases with sequential commits in
   between, so the result — including the *order* of every cone array,
   whose covering slice [hosts_of] reads head-first and which therefore
   shows up in message counts — is bit-identical to the sequential
   rebuild:

     1. Level sets: every key's membership path is drawn once; then one
        task per level counting-sorts the (sorted) ground set by that
        level's prefixes into the level's own row.
     2. Blocks and cones: block boundaries and their round-robin owners
        depend only on code counts, so they are enumerated sequentially
        first (freezing the block -> host map); the expensive per-block
        cone scans then fan out, each writing its own slot, and the
        intervals are committed sequentially in block order. *)
let rebuild t =
  uncharge_all t;
  let n = size t in
  let top = required_top n in
  t.top <- top;
  (* Level sets along every element's membership path. The ground set is
     in key order, so each set fills already sorted. *)
  let keys = O.to_array t.keys in
  let paths = Array.map (path t) keys in
  t.sets <- Array.make (top + 1) [||];
  for_items t (top + 1) (fun level ->
      let shift = top - level in
      let fill = Array.make (1 lsl level) 0 in
      Array.iter
        (fun p ->
          let b = p lsr shift in
          fill.(b) <- fill.(b) + 1)
        paths;
      let row = Array.map (fun c -> if c = 0 then [||] else Array.make c 0) fill in
      Array.fill fill 0 (Array.length fill) 0;
      Array.iteri
        (fun i p ->
          let b = p lsr shift in
          row.(b).(fill.(b)) <- keys.(i);
          fill.(b) <- fill.(b) + 1)
        paths;
      t.sets.(level) <- row);
  (* Size blocks so there is about one block per *live* host (each block
     drags an O(M)-sized cone along, so several blocks per host would
     overshoot the memory budget). Placement only ever targets live hosts:
     with nobody dead the live array is the identity and every owner draw
     below reproduces the historical [!counter mod hosts]. *)
  let hosts = Network.host_count t.net in
  let live =
    Array.of_list (List.filter (fun h -> Network.alive t.net h) (List.init hosts Fun.id))
  in
  let nlive = Array.length live in
  let reps = min t.r nlive in
  let total_basic_codes = ref 0 in
  iter_sets t (fun l _ arr ->
      if l mod t.stride = 0 then total_basic_codes := !total_basic_codes + L.num_ranges arr);
  t.bsize <- max (max 2 (t.m / 4)) ((!total_basic_codes + nlive - 1) / nlive);
  (* Enumerate every block in the canonical (level, prefix, block) order,
     assigning owners from the round-robin counter: replica slot s of
     block [idx] is the live host [idx + s] positions along, so the r
     copies of a block always sit on r distinct live hosts (r <= nlive). *)
  t.blocks <-
    Array.mapi
      (fun level row -> if level mod t.stride = 0 then Array.make (Array.length row) [||] else [||])
      t.sets;
  let counter = ref 0 in
  let pending = ref [] in
  for level = 0 to top do
    if level mod t.stride = 0 then
      Array.iteri
        (fun b arr ->
          if Array.length arr > 0 then
            t.blocks.(level).(b) <-
              Array.init
                ((L.num_ranges arr + t.bsize - 1) / t.bsize)
                (fun j ->
                  let idx = !counter mod nlive in
                  incr counter;
                  let owners = Array.init reps (fun s -> live.((idx + s) mod nlive)) in
                  let blk = { j; owners; units = 0; cache = [||] } in
                  pending := (level, b, blk) :: !pending;
                  blk))
        t.sets.(level)
  done;
  let block_arr = Array.of_list (List.rev !pending) in
  (* The cone of each block: for each non-basic level above, every
     descendant set's ranges touching the block's key span. (This is the
     conflict closure clamped to the block span; clamping keeps per-host
     space O(M) while every range stays covered by the block whose span it
     touches.) Pure reads of [t.sets]; each task writes only its own
     block's [units] and its own result slot. *)
  let results = Array.make (Array.length block_arr) [] in
  for_items t (Array.length block_arr) (fun i ->
      let level, b, blk = block_arr.(i) in
      let arr = t.sets.(level).(b) in
      let clo, chi = block_codes t arr blk.j in
      let units = ref (chi - clo + 1) in
      let cones = ref [] in
      let span_block = interval_span arr clo chi in
      let lvl = ref (level + 1) in
      while !lvl <= top && !lvl mod t.stride <> 0 do
        let fan = 1 lsl (!lvl - level) in
        for suffix = 0 to fan - 1 do
          let cb = (b * fan) + suffix in
          let child_arr = t.sets.(!lvl).(cb) in
          if Array.length child_arr > 0 then begin
            let clo', chi' = codes_touching child_arr span_block in
            if clo' <= chi' then begin
              cones := (!lvl, cb, { lo = clo'; hi = chi'; block = blk }) :: !cones;
              units := !units + (chi' - clo' + 1)
            end
          end
        done;
        incr lvl
      done;
      blk.units <- !units;
      results.(i) <- !cones);
  (* Sequential commit in block order: a block adds at most one interval
     per (level, prefix), and each is prepended, so every cone array ends
     up in descending block index. *)
  let acc = Array.map (fun row -> Array.make (Array.length row) []) t.sets in
  Array.iteri
    (fun i cones ->
      let _, _, blk = block_arr.(i) in
      Array.iter (fun h -> charge t h blk.units) blk.owners;
      List.iter (fun (lvl, cb, cone) -> acc.(lvl).(cb) <- cone :: acc.(lvl).(cb)) cones)
    results;
  t.cones <- Array.map (Array.map Array.of_list) acc;
  (* Cache copies ride on the finished block/cone maps: pure re-derivation,
     so an update-triggered rebuild and [set_cache] always agree. *)
  apply_cache t

let build ~net ~seed ~m ?(r = 1) ?(cache_levels = 0) ?(cache_replicas = 1) ?pool keys =
  if m < 4 then invalid_arg "Blocked1d.build: m >= 4";
  if r < 1 || r > Network.host_count net then
    invalid_arg "Blocked1d.build: need 1 <= r <= host count";
  if cache_levels < 0 then invalid_arg "Blocked1d.build: cache_levels >= 0";
  if cache_replicas < 1 || r + cache_replicas - 1 > Network.host_count net then
    invalid_arg "Blocked1d.build: need 1 <= cache_replicas and r + cache_replicas - 1 <= hosts";
  let xs = Array.copy keys in
  Array.sort compare xs;
  Array.iteri (fun i k -> if i > 0 && xs.(i - 1) = k then invalid_arg "Blocked1d.build: duplicate keys") xs;
  let log2_ceil x =
    let rec go k = if 1 lsl k >= x then k else go (k + 1) in
    go 0
  in
  let stride = max 1 (log2_ceil m) in
  let t =
    {
      net;
      vecs = Membership.create ~seed;
      m;
      r;
      stride;
      bsize = max 2 (m / 4);  (* refined by rebuild *)
      keys = O.of_sorted_array xs;
      top = 0;
      sets = [||];
      blocks = [||];
      cones = [||];
      cache_levels;
      cache_replicas;
      cache_seed = seed + 0xca4e;
      host_mem = Array.make (Network.host_count net) 0;
      pool;
    }
  in
  rebuild t;
  t

let replication t = t.r

let cache_config t = (t.cache_levels, t.cache_replicas)

(* Reconfigure the cache without a full rebuild: release the current cache
   charges, swap the window and replica count, and re-derive. The block /
   cone maps, all primary placements and every charge outside the cache
   are untouched, so this is cheap even at n = 10^6 — which is what lets
   the serving bench sweep k against one build. *)
let set_cache t ~levels ~k =
  if levels < 0 then invalid_arg "Blocked1d.set_cache: levels >= 0";
  if k < 1 || t.r + k - 1 > Network.host_count t.net then
    invalid_arg "Blocked1d.set_cache: need 1 <= k and r + k - 1 <= hosts";
  charge_cache t ~sign:(-1);
  t.cache_levels <- levels;
  t.cache_replicas <- k;
  apply_cache t

let total_storage t =
  let total = ref 0 in
  iter_sets t (fun _ _ arr -> total := !total + L.num_ranges arr);
  !total

let replicated_storage t = Array.fold_left ( + ) 0 t.host_mem

let max_host_memory t = Array.fold_left max 0 t.host_mem

(* The routing representative of one set of owners: its first live owner —
   the primary when nobody is dead — or the dead primary when every copy
   is gone, so the session hop raises [Host_dead] instead of silently
   reading a lost range. *)
let entry_rep t owners =
  match Array.find_opt (fun h -> Network.alive t.net h) owners with
  | Some h -> h
  | None -> owners.(0)

(* The representative for a query reading cache slot [slot] of a block's
   group: the group's cache copy when one exists and is live, the first
   live owner otherwise. Slot 0 — and any group outside the cache window —
   is always the owner path, preserving the historical routing
   byte-for-byte. *)
let entry_rep_slot t ~slot blk =
  if slot >= 1 && slot - 1 < Array.length blk.cache && Network.alive t.net blk.cache.(slot - 1)
  then blk.cache.(slot - 1)
  else entry_rep t blk.owners

(* Which cache copy a query from [origin] reads for groups based at basic
   level [base]: pure in (cache_seed, origin, base) — bit-identical runs
   for fixed parameters, jobs-invariant — and 0 (the owner path) whenever
   the group is uncached. One slot per *group*, not per level, so a
   descent still changes hosts only at basic-level boundaries and the
   O(log n / log log n) message bound is untouched. *)
let slot_for t origin base =
  if t.cache_replicas > 1 && base < t.cache_levels then
    Placement.replica_slot ~seed:t.cache_seed ~origin ~level:base ~k:t.cache_replicas
  else 0

(* One representative per covering entry (block, or cone interval) of the
   range with this code, in array order. A cone array runs in descending
   block index with non-increasing [lo] and [hi], so the intervals
   covering [code] are the slice from the first [lo <= code] up to the
   first [hi < code]. With nobody dead and [slot = 0] every representative
   is that entry's primary, so the list — and hence every routing decision
   made over it — is identical to the unreplicated, uncached one for any
   [r]. *)
let hosts_of ?(slot = 0) t level b code =
  if level mod t.stride = 0 then [ entry_rep_slot t ~slot t.blocks.(level).(b).(code / t.bsize) ]
  else
    let cones = t.cones.(level).(b) in
    let n = Array.length cones in
    let first = first_index n (fun i -> cones.(i).lo <= code) in
    let past = first_index n (fun i -> cones.(i).hi < code) in
    let rec collect i acc =
      if i < first then acc else collect (i - 1) (entry_rep_slot t ~slot cones.(i).block :: acc)
    in
    collect (past - 1) []

(* Where a walk lands among the representatives [hosts_of] returned: the
   first live one, else the head so the session hop raises [Host_dead]
   (every copy is gone). *)
let route_of t hs =
  match List.find_opt (fun h -> Network.alive t.net h) hs with
  | Some h -> h
  | None -> ( match hs with h :: _ -> h | [] -> 0)

type search_result = {
  predecessor : int option;
  successor : int option;
  nearest : int option;
  messages : int;
}

(* The owner of the block that q's own position falls into at the next
   basic level at or below [level] along the origin's set path — the host
   a descending query will want to be on. *)
let preferred_host t ~origin ~path level q =
  let base = level - (level mod t.stride) in
  let b = path lsr (t.top - base) in
  let j = L.encode (L.locate t.sets.(base).(b) q) / t.bsize in
  (* The origin's read copy of the preferred block: its cache copy when
     the group is cached for this origin, else the first live owner — the
     primary when nobody is dead, preserving the historical routing
     exactly. *)
  entry_rep_slot t ~slot:(slot_for t origin base) t.blocks.(base).(b).(j)

(* Traced descents open one leveled span per level, noting whether the
   level's range lives in a block or a cone and how many replicas cover
   it; hops are labeled accordingly. All trace work is guarded, so an
   untraced query runs the original code path exactly. *)
let query_from ?trace t origin q =
  let path = path t origin in
  let code_at level =
    let b = path lsr (t.top - level) in
    (b, L.encode (L.locate t.sets.(level).(b) q))
  in
  let slot_at level = slot_for t origin (level - (level mod t.stride)) in
  let b_top, code_top = code_at t.top in
  let initial_hosts = hosts_of ~slot:(slot_at t.top) t t.top b_top code_top in
  let pick level hosts current =
    (* Route among the covering entries whose representative is live; with
       nobody dead that is one primary per entry and the choice matches
       the historical one exactly. When every entry lost all its copies,
       fall through to the (dead) head so the hop raises [Host_dead]
       instead of silently reading a lost range. *)
    match List.filter (fun h -> Network.alive t.net h) hosts with
    | [] -> ( match hosts with [] -> current | h :: _ -> h)
    | [ h ] -> h
    | h :: _ as hs ->
        if List.mem current hs then current
        else
          let p = preferred_host t ~origin ~path level q in
          if List.mem p hs then p else h
  in
  let start = match initial_hosts with [] -> 0 | hs -> route_of t hs in
  let session = Network.start ?trace t.net start in
  let rec descend level =
    if level >= 0 then begin
      let basic = level mod t.stride = 0 in
      let b, code = code_at level in
      let hs = hosts_of ~slot:(slot_at level) t level b code in
      let target = pick level hs (Network.current session) in
      (match trace with
      | None -> Network.goto session target
      | Some tr ->
          Trace.span_open tr ~level (if basic then "basic level" else "cone level");
          Network.goto ~label:(if basic then "block" else "cone") session target;
          Trace.span_close tr ~note:(Printf.sprintf "replicas=%d" (List.length hs)) ());
      descend (level - 1)
    end
  in
  descend t.top;
  Network.finish session;
  let predecessor = O.predecessor t.keys q in
  let successor = O.successor t.keys q in
  { predecessor; successor; nearest = O.nearest t.keys q; messages = Network.messages session }

let query ?trace t ~rng q =
  if size t = 0 then { predecessor = None; successor = None; nearest = None; messages = 0 }
  else query_from ?trace t (O.get t.keys (Prng.int rng (size t))) q

(* Parallel fan-out of independent queries: origins pre-drawn sequentially
   (one rng draw per query, matching a loop of [query] coin-for-coin), then
   each descent is a pure read-only walk whose session commits through the
   network's atomic counters — results and network totals are bit-identical
   for any jobs count. An empty structure consumes no rng draws, exactly
   like the sequential loop. *)
let query_batch ?pool t ~rng qs =
  let n = Array.length qs in
  if size t = 0 then
    Array.map (fun _ -> { predecessor = None; successor = None; nearest = None; messages = 0 }) qs
  else begin
    let origins = Array.init n (fun _ -> O.get t.keys (Prng.int rng (size t))) in
    let out = Array.make n None in
    let run i = out.(i) <- Some (query_from t origins.(i) qs.(i)) in
    (match pool with
    | None ->
        for i = 0 to n - 1 do
          run i
        done
    | Some p -> Skipweb_util.Pool.parallel_for p ~lo:0 ~hi:n run);
    Array.map (function Some r -> r | None -> assert false) out
  end

let mem t k = O.mem t.keys k

(* Updates: the message bill is a locate plus O(1) messages per basic
   level (§4 — non-basic copies live in the cones already co-located with
   basic blocks; block splits amortize). The ground-set splice is an
   O(√n) chunk update; the block/cone maps are then rebuilt, which the
   cost model does not meter. *)
let update_cost t locate_messages = locate_messages + (2 * List.length (basic_levels t))

let insert t k =
  if mem t k then 0
  else begin
    let locate_msgs = if size t = 0 then 0 else (query t ~rng:(Prng.create (k + 13)) k).messages in
    ignore (O.insert t.keys k);
    rebuild t;
    update_cost t locate_msgs
  end

let delete t k =
  if not (mem t k) then 0
  else begin
    let locate_msgs = (query t ~rng:(Prng.create (k + 17)) k).messages in
    ignore (O.remove t.keys k);
    rebuild t;
    update_cost t locate_msgs
  end

(* ------- bulk maintenance updates ------- *)

(* Canonical batch form: strictly increasing. Already-sorted input (the
   common case for epoch-style feeds) passes through without copying. *)
let sorted_distinct ks =
  let m = Array.length ks in
  let sorted = ref true in
  for i = 1 to m - 1 do
    if ks.(i - 1) >= ks.(i) then sorted := false
  done;
  if !sorted then ks
  else begin
    let xs = Array.copy ks in
    Array.sort compare xs;
    let w = ref 1 in
    for r = 1 to m - 1 do
      if xs.(r) <> xs.(!w - 1) then begin
        xs.(!w) <- xs.(r);
        incr w
      end
    done;
    Array.sub xs 0 !w
  end

(* Run [f] with [pool] (when given) standing in for the structure's own,
   so one batch op's ground-set splice *and* the rebuild it triggers fan
   out under the same pool. *)
let with_batch_pool t pool f =
  match pool with
  | None -> f t.pool
  | Some _ ->
      let saved = t.pool in
      t.pool <- pool;
      Fun.protect ~finally:(fun () -> t.pool <- saved) (fun () -> f pool)

(* The bulk write path: splice the whole sorted batch into the ground
   set through the chunk-sharded Ordseq engine, then rebuild the
   block/cone maps once for the entire batch instead of once per key.
   Like [repair], this is a maintenance operation — no locate queries
   run and nothing is added to the network's message counters (the
   online per-key bill is [update_cost] each). The splice shards over
   disjoint chunk ranges and the rebuild fans its two phases, both
   bit-identical to sequential for any jobs count. *)
let insert_batch ?pool t ks =
  let ks = sorted_distinct ks in
  if Array.length ks = 0 then 0
  else
    with_batch_pool t pool (fun pool ->
        let added = O.insert_batch ?pool t.keys ks in
        if added > 0 then rebuild t;
        added)

let delete_batch ?pool t ks =
  let ks = sorted_distinct ks in
  if Array.length ks = 0 then 0
  else
    with_batch_pool t pool (fun pool ->
        let gone = O.remove_batch ?pool t.keys ks in
        if gone > 0 then rebuild t;
        gone)

let check_invariants t =
  let n = size t in
  let keys = O.to_array t.keys in
  let paths = Array.map (path t) keys in
  if Array.length t.sets <> t.top + 1 then failwith "Blocked1d: level table has the wrong height";
  Array.iteri
    (fun level row ->
      (* The level's sets partition the ground set, each key in the set its
         own path names. *)
      if Array.length row <> 1 lsl level then failwith "Blocked1d: level row has the wrong width";
      let total = Array.fold_left (fun acc arr -> acc + Array.length arr) 0 row in
      if total <> n then failwith "Blocked1d: level sets do not partition the keys";
      Array.iteri
        (fun b arr ->
          Array.iter
            (fun k ->
              let i = O.array_lower_bound keys k in
              if i = n || keys.(i) <> k || paths.(i) lsr (t.top - level) <> b then
                failwith "Blocked1d: key in wrong set")
            arr)
        row)
    t.sets;
  (* Blocks tile every basic set; non-basic levels hold none. *)
  Array.iteri
    (fun level row ->
      Array.iteri
        (fun b blks ->
          let arr = t.sets.(level).(b) in
          let expect =
            if level mod t.stride <> 0 || Array.length arr = 0 then 0
            else (L.num_ranges arr + t.bsize - 1) / t.bsize
          in
          if Array.length blks <> expect then
            failwith (Printf.sprintf "Blocked1d: level %d set %d has the wrong blocks" level b);
          Array.iteri
            (fun j blk -> if blk.j <> j then failwith "Blocked1d: block out of place")
            blks)
        row)
    t.blocks;
  (* [hosts_of] binary-searches each cone array for the slice covering a
     code; that needs block indices strictly decreasing and [lo], [hi]
     non-increasing along the array. *)
  Array.iteri
    (fun level row ->
      Array.iteri
        (fun b cones ->
          Array.iteri
            (fun i c ->
              if c.lo > c.hi then failwith "Blocked1d: empty cone interval";
              if i > 0 then begin
                let p = cones.(i - 1) in
                if c.block.j >= p.block.j || c.lo > p.lo || c.hi > p.hi then
                  failwith
                    (Printf.sprintf
                       "Blocked1d: cone array at level %d, set %d, out of order at %d (blocks must \
                        strictly decrease, lo and hi must not increase)"
                       level b i)
              end)
            cones)
        row)
    t.cones;
  (* Every range of every level is stored somewhere. *)
  iter_sets t (fun level b arr ->
      for code = 0 to L.num_ranges arr - 1 do
        match hosts_of t level b code with
        | [] -> failwith (Printf.sprintf "Blocked1d: range uncovered at level %d" level)
        | _ :: _ -> ()
      done);
  (* Cache coverage: exactly the eligible groups are cached, each with
     k - 1 copies, and all copies of a group — owners and cache — sit on
     pairwise distinct hosts. (Liveness is not checked — like owners,
     cache placements go stale between a kill and the next
     repair/rebuild.) *)
  iter_blocks t (fun level _ blk ->
      let expect = if t.cache_replicas > 1 && level < t.cache_levels then t.cache_replicas - 1 else 0 in
      if Array.length blk.cache <> expect then
        failwith
          (Printf.sprintf "Blocked1d: block group at level %d has %d cache copies, expected %d" level
             (Array.length blk.cache) expect);
      let all = Array.append blk.owners blk.cache in
      Array.iteri
        (fun i h ->
          Array.iteri (fun i' h' -> if i < i' && h = h' then failwith "Blocked1d: copies collide") all)
        all);
  (* Conflict-chain soundness: on every level, the range containing a probe
     key conflicts with the range containing it one level up. *)
  if n > 0 then begin
    let probes = [ keys.(0) - 1; keys.(n / 2); keys.(n - 1) + 1 ] in
    let origin_path = paths.(n / 2) in
    List.iter
      (fun q ->
        let rec walk level =
          if level > 0 then begin
            let b = origin_path lsr (t.top - level) in
            let child = t.sets.(level).(b) in
            let parent = t.sets.(level - 1).(b / 2) in
            let child_range = L.locate child q in
            let plo, phi = L.conflict_interval ~parent ~child child_range in
            let pcode = L.encode (L.locate parent q) in
            if pcode < plo || pcode > phi then failwith "Blocked1d: conflict chain broken";
            walk (level - 1)
          end
        in
        walk t.top)
      probes
  end

type repair_stats = { scanned : int; repaired : int; messages : int; lost : int }

(* Blocked1d's update model rebuilds the block/cone maps wholesale, so
   self-repair is: bill the copies currently stranded on dead hosts (one
   steal message per unit with a surviving replica, a loss otherwise),
   then rebuild — which re-draws every placement over live hosts only and
   migrates the stranded charges as a side effect of re-charging. *)
let repair t =
  let scanned = ref 0 and repaired = ref 0 and messages = ref 0 and lost = ref 0 in
  (* Cache copies are billed exactly like data replicas: a cached group's
     copies on dead hosts are steals from any surviving copy — owner or
     cache — and the rebuild below re-draws them over live hosts only. *)
  let account blk units =
    incr scanned;
    let copies = Array.append blk.owners blk.cache in
    let any_live = Array.exists (fun h -> Network.alive t.net h) copies in
    Array.iter
      (fun h ->
        if not (Network.alive t.net h) then begin
          repaired := !repaired + units;
          if any_live then messages := !messages + units else lost := !lost + units
        end)
      copies
  in
  iter_blocks t (fun level b blk ->
      let clo, chi = block_codes t t.sets.(level).(b) blk.j in
      account blk (chi - clo + 1));
  Array.iter (Array.iter (Array.iter (fun c -> account c.block (c.hi - c.lo + 1)))) t.cones;
  rebuild t;
  { scanned = !scanned; repaired = !repaired; messages = !messages; lost = !lost }

type range_result = { keys : int list; messages : int }

let range t ~rng ~lo ~hi =
  if lo > hi then invalid_arg "Blocked1d.range: lo > hi";
  if size t = 0 then { keys = []; messages = 0 }
  else begin
    let locate = query t ~rng lo in
    (* Walk the bottom level (the full set, prefix 0) from lo's range to
       hi's: the host changes only where the walk enters a new block. *)
    let clo, chi = L.range_codes t.sets.(0).(0) ~lo ~hi in
    let blocks = t.blocks.(0).(0) in
    let host j = entry_rep t blocks.(j).owners in
    let crossings = ref 0 in
    let cur = ref (host (clo / t.bsize)) in
    for j = (clo / t.bsize) + 1 to chi / t.bsize do
      let h = host j in
      if h <> !cur then begin
        incr crossings;
        cur := h
      end
    done;
    { keys = O.range_keys t.keys ~lo ~hi; messages = locate.messages + !crossings }
  end
