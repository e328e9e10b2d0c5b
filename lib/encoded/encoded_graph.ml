type predicate_stats = {
  triples : int;
  distinct_subjects : int;
  distinct_objects : int;
}

(* One sorted index permutation, behind a backend the query kernels never
   see through: either a heap array of id triples (built by [of_graph])
   or a closure-provided flat view (an mmap'd section of a compiled
   store, [of_views] — possibly an overlay merging a base store with
   delta segments). Every access below goes through [clen]/[cget], so
   binary search, range iteration and the statistics scans are byte-for-
   byte the same code on both backends. The view indirection is a
   closure call per probe — noise next to the comparisons of the binary
   searches it feeds. *)
type flat_view = { fn : int; fget : int -> int * int * int }

type cells = Heap of (int * int * int) array | View of flat_view

let clen = function Heap a -> Array.length a | View v -> v.fn
let cget c i = match c with Heap a -> a.(i) | View v -> v.fget i

(* Statistics a compiled store carries precomputed: the save-time cost
   buys O(1) plan-time answers without scanning the mmap'd arrays. The
   per-predicate closure may return [None] (unknown predicate, or a
   predicate whose figures went stale under a delta overlay), which
   falls back to the exact scan path; [None] globals likewise fall back
   to a one-shot counting scan. *)
type stats_seed = {
  seed_subjects : int option;
  seed_objects : int option;
  seed_predicates : int option;
  seed_predicate : int -> predicate_stats option;
}

type t = {
  identity : int;
      (* heap stores: the source graph's positive Graph.epoch; mapped
         stores: the negative content-stamp identity — either way, what
         every cross-evaluation cache keys on *)
  dict : Rdf.Dictionary.t;
  a_spo : cells;
  a_pos : cells;
  a_osp : cells;
  seed : stats_seed option;
  (* Planner statistics, derived lazily from the sorted arrays above and
     memoized on the store (stores are immutable, so once computed a
     figure never goes stale). The per-predicate table makes repeated
     optimizer calls O(1) after the first query touching a predicate. *)
  pstats : (int, predicate_stats) Hashtbl.t;
  mutable subject_count : int;  (* -1 = not yet computed *)
  mutable object_count : int;
  mutable predicate_count : int;
}

let rot_spo (s, p, o) = (s, p, o)
let rot_pos (s, p, o) = (p, o, s)
let rot_osp (s, p, o) = (o, s, p)

let sorted_by rot triples =
  let arr = Array.of_list triples in
  Array.sort (fun a b -> compare (rot a) (rot b)) arr;
  arr

let of_graph graph =
  let dict = Rdf.Dictionary.of_graph graph in
  let triples =
    List.map (Rdf.Dictionary.encode_triple dict) (Rdf.Graph.triples graph)
  in
  {
    identity = Rdf.Graph.epoch graph;
    dict;
    a_spo = Heap (sorted_by rot_spo triples);
    a_pos = Heap (sorted_by rot_pos triples);
    a_osp = Heap (sorted_by rot_osp triples);
    seed = None;
    pstats = Hashtbl.create 16;
    subject_count = -1;
    object_count = -1;
    predicate_count = -1;
  }

let of_views ~identity ~dict ~spo ~pos ~osp ?stats () =
  if spo.fn <> pos.fn || pos.fn <> osp.fn then
    invalid_arg "Encoded_graph.of_views: permutations disagree on length";
  {
    identity;
    dict;
    a_spo = View spo;
    a_pos = View pos;
    a_osp = View osp;
    seed = stats;
    pstats = Hashtbl.create 16;
    subject_count = -1;
    object_count = -1;
    predicate_count = -1;
  }

(* Bounded MRU memo for [of_graph], keyed on the graph's epoch: graphs
   are immutable and each constructed store carries a globally unique
   epoch, so epoch equality is exactly "the same store" — stronger than
   the physical-identity key this cache used before (it now also hits
   when the same graph value flows through a copy-preserving pipeline). *)
let cache_capacity = 8
let cache : (int * t) list ref = ref []

(* Loaded persistent stores, pinned outside the MRU churn and keyed on
   their stable identity: a deferred graph handle resolves here first,
   so evaluating through the handle runs on the mmap'd arrays instead of
   forcing the handle's term-level decode. Entries stay until
   [clear_cache] (or a re-register of the same identity); dropping one
   never unmaps anything a live evaluation still sees — every borrowed
   view is a closure that keeps its mapping reachable on its own. *)
let registered : (int, t) Hashtbl.t = Hashtbl.create 8

(* Guards [cache] and [registered]: server worker threads resolve stores
   through [of_graph_cached] while a reload may [register] a fresh store
   or a caller [clear_cache], so every touch of either table is
   serialized. *)
let cache_lock = Mutex.create ()

let register t =
  Mutex.protect cache_lock (fun () -> Hashtbl.replace registered t.identity t)

let clear_cache () =
  Mutex.protect cache_lock (fun () ->
      cache := [];
      Hashtbl.reset registered)

let of_graph_cached graph =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let key = Rdf.Graph.epoch graph in
  let cached =
    Mutex.protect cache_lock (fun () ->
        match Hashtbl.find_opt registered key with
        | Some enc -> Some enc
        | None -> (
            match List.find_opt (fun (e, _) -> e = key) !cache with
            | Some (_, enc) ->
                (* move to front *)
                cache :=
                  (key, enc) :: List.filter (fun (e, _) -> e <> key) !cache;
                Some enc
            | None -> None))
  in
  match cached with
  | Some enc -> enc
  | None ->
      (* Encode outside the lock — sorting three permutations can be
         long, and a concurrent duplicate build is only wasted work. *)
      let enc = of_graph graph in
      Mutex.protect cache_lock (fun () ->
          match
            ( Hashtbl.find_opt registered key,
              List.find_opt (fun (e, _) -> e = key) !cache )
          with
          | Some winner, _ | None, Some (_, winner) ->
              (* another thread finished (or registered) first: keep one
                 canonical store per identity so memo hits stay shared *)
              winner
          | None, None ->
              cache := take cache_capacity ((key, enc) :: !cache);
              enc)

let epoch t = t.identity
let dictionary t = t.dict

let cardinal t = clen t.a_spo
let nth_spo t i = cget t.a_spo i
let nth_pos t i = cget t.a_pos i
let nth_osp t i = cget t.a_osp i

(* First index whose rotated key is >= [key]. *)
let lower_bound arr rot key =
  let lo = ref 0 and hi = ref (clen arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare (rot (cget arr mid)) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* The half-open range of triples whose rotated key starts with the bound
   prefix (k1, maybe k2, maybe k3). *)
let range arr rot k1 k2 k3 =
  let low =
    ( k1,
      Option.value ~default:min_int k2,
      Option.value ~default:min_int k3 )
  in
  let high =
    ( k1,
      Option.value ~default:max_int k2,
      Option.value ~default:max_int k3 )
  in
  let start = lower_bound arr rot low in
  (* upper: first strictly greater than the max-filled prefix *)
  let stop =
    let lo = ref start and hi = ref (clen arr) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if compare (rot (cget arr mid)) high <= 0 then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (start, stop)

(* Pick the permutation whose sort order makes the bound positions a
   prefix. (s,o)-bound must use OSP: in SPO the object would not be part
   of the prefix and the range would over-approximate. *)
let choose t ?s ?p ?o () =
  match s, p, o with
  | Some s, Some p, _ -> Some (t.a_spo, rot_spo, s, Some p, o)
  | Some s, None, Some o -> Some (t.a_osp, rot_osp, o, Some s, None)
  | Some s, None, None -> Some (t.a_spo, rot_spo, s, None, None)
  | None, Some p, _ -> Some (t.a_pos, rot_pos, p, o, None)
  | None, None, Some o -> Some (t.a_osp, rot_osp, o, None, None)
  | None, None, None -> None

let mem t (s, p, o) =
  let start, stop = range t.a_spo rot_spo s (Some p) (Some o) in
  stop > start

let iter_matching t ?s ?p ?o ~f () =
  match choose t ?s ?p ?o () with
  | None ->
      for i = 0 to clen t.a_spo - 1 do
        f (cget t.a_spo i)
      done
  | Some (arr, rot, k1, k2, k3) ->
      let start, stop = range arr rot k1 k2 k3 in
      for i = start to stop - 1 do
        f (cget arr i)
      done

let matching t ?s ?p ?o () =
  let acc = ref [] in
  iter_matching t ?s ?p ?o ~f:(fun triple -> acc := triple :: !acc) ();
  !acc

let match_count t ?s ?p ?o () =
  match choose t ?s ?p ?o () with
  | None -> clen t.a_spo
  | Some (arr, rot, k1, k2, k3) ->
      let start, stop = range arr rot k1 k2 k3 in
      stop - start

(* ------------------------------------------------------------------ *)
(* Planner statistics                                                  *)
(* ------------------------------------------------------------------ *)

(* Distinct values of one projected position within [start, stop) of a
   sorted array. When the projection is the array's primary sort key the
   distinct values form contiguous runs and a single linear pass counts
   them; otherwise the column is extracted, sorted, and its runs counted.
   Both are one-shot costs — every entry point below memoizes, and
   compiled stores carry the figures precomputed ([stats_seed]) so the
   scans never touch the mmap at all. *)
let count_runs proj arr start stop =
  let n = ref 0 and prev = ref min_int in
  for i = start to stop - 1 do
    let v = proj (cget arr i) in
    if !n = 0 || v <> !prev then begin
      incr n;
      prev := v
    end
  done;
  !n

let count_distinct_unsorted proj arr start stop =
  let col = Array.init (stop - start) (fun i -> proj (cget arr (start + i))) in
  Array.sort compare col;
  let n = ref 0 and prev = ref min_int in
  Array.iter
    (fun v ->
      if !n = 0 || v <> !prev then begin
        incr n;
        prev := v
      end)
    col;
  !n

let predicate_stats t p =
  match Hashtbl.find_opt t.pstats p with
  | Some s -> s
  | None ->
      let seeded =
        match t.seed with None -> None | Some seed -> seed.seed_predicate p
      in
      let s =
        match seeded with
        | Some s -> s
        | None ->
            (* a_pos stores raw (s, p, o) tuples sorted by (p, o, s): the
               predicate's triples are one contiguous block, within which
               distinct objects are runs of the o column; distinct
               subjects need a sort of the s column. *)
            let start, stop = range t.a_pos rot_pos p None None in
            {
              triples = stop - start;
              distinct_objects =
                count_runs (fun (_, _, o) -> o) t.a_pos start stop;
              distinct_subjects =
                count_distinct_unsorted (fun (s, _, _) -> s) t.a_pos start stop;
            }
      in
      Hashtbl.replace t.pstats p s;
      s

let distinct_subjects t =
  if t.subject_count < 0 then
    t.subject_count <-
      (match t.seed with
      | Some { seed_subjects = Some n; _ } -> n
      | _ -> count_runs (fun (s, _, _) -> s) t.a_spo 0 (clen t.a_spo));
  t.subject_count

let distinct_objects t =
  if t.object_count < 0 then
    t.object_count <-
      (match t.seed with
      | Some { seed_objects = Some n; _ } -> n
      | _ ->
          (* a_osp is sorted by (o, s, p), so o runs are contiguous *)
          count_runs (fun (_, _, o) -> o) t.a_osp 0 (clen t.a_osp));
  t.object_count

let distinct_predicates t =
  if t.predicate_count < 0 then
    t.predicate_count <-
      (match t.seed with
      | Some { seed_predicates = Some n; _ } -> n
      | _ -> count_runs (fun (_, p, _) -> p) t.a_pos 0 (clen t.a_pos));
  t.predicate_count
