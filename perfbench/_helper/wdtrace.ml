(* wdtrace: the traced in-process replay (driven by perfbench/run.py).

     wdtrace DIR CLI_OPS REQS OUT

   re-runs the ops listed in CLI_OPS of DIR/ops.tsv in process, through
   the same public calls the CLI makes, then the requests listed in REQS
   on warm plans as the server runs them, and records a span around each
   call into a layer. Spans and counters are kept in memory and written
   out at the end as [OUT/spans.tsv], [OUT/counters.tsv], [OUT/ops.tsv]
   and [OUT/requests.tsv].

   It is a separate executable from wdbench so that a change to one of
   the timed calls can break only the traced run. *)

open Rdf
open Common
module Budget = Resource.Budget
module Engine = Wd_core.Engine
module Plan_cache = Wd_core.Plan_cache
module Canonical = Analysis.Canonical
module Prune = Analysis.Prune
module Width_est = Analysis.Width_est

(* ------------------------------------------------------------------ *)
(* Span recorder                                                       *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type span = { id : int; parent : int; op : int; name : string; t0 : float; t1 : float }

  let on = ref true
  let op = ref (-1)
  let spans = ref []
  let counters = ref []
  let stack = ref []
  let next = ref 0
  (* nanosecond monotonic clock, so sub-microsecond calls still read
     as a duration *)
  let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

  let span name f =
    if not !on then f ()
    else begin
      let id = !next in
      incr next;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      stack := id :: !stack;
      let t0 = now () in
      let finish () =
        let t1 = now () in
        stack := List.tl !stack;
        spans := { id; parent; op = !op; name; t0; t1 } :: !spans
      in
      match f () with
      | v -> finish (); v
      | exception e -> finish (); raise e
    end

  let count name v = if !on then counters := (!op, name, v) :: !counters

  let write out =
    let b = Buffer.create 65536 in
    List.iter
      (fun s ->
        Buffer.add_string b
          (Printf.sprintf "%d\t%d\t%d\t%s\t%.9f\t%.9f\n" s.op s.id s.parent s.name s.t0 s.t1))
      (List.rev !spans);
    write_file (out // "spans.tsv") (Buffer.contents b);
    let b = Buffer.create 4096 in
    List.iter
      (fun (o, n, v) -> Buffer.add_string b (Printf.sprintf "%d\t%s\t%.17g\n" o n v))
      (List.rev !counters);
    write_file (out // "counters.tsv") (Buffer.contents b)
end

let span = Trace.span
let count = Trace.count
let counting () = Budget.make ~fuel:max_int ()
let ticks b = float_of_int (Budget.spent b)

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let cache_counters (s : Plan_cache.stats) =
  let p = s.Plan_cache.pebble in
  let lookups = p.Wd_core.Pebble_cache.hits + p.Wd_core.Pebble_cache.misses in
  count "core.pebble_lookups" (float_of_int lookups);
  count "core.pebble_hits" (float_of_int p.Wd_core.Pebble_cache.hits);
  count "core.games_compiled" (float_of_int p.Wd_core.Pebble_cache.compiled);
  count "core.hom_sources" (float_of_int s.Plan_cache.hom_sources);
  count "core.decision_hits" (float_of_int s.Plan_cache.decision_hits);
  count "core.decision_lookups"
    (float_of_int (s.Plan_cache.decision_hits + s.Plan_cache.decision_misses))

let load_ttl path =
  span "rdf.parse" (fun () ->
      match Turtle.parse_graph_err ~source:path (read_file path) with
      | Ok g -> g
      | Error e -> fail "%s" (Wdsparql_error.to_string e))

let load_data path =
  if Filename.check_suffix path ".wds" then
    span "storage.load" (fun () -> Storage.load_graph path)
  else load_ttl path

let print_solutions sols =
  span "sparql.print" (fun () ->
      let buf = Buffer.create 65536 in
      let ppf = Format.formatter_of_buffer buf in
      Fmt.pf ppf "%d solution(s)@." (Sparql.Mapping.Set.cardinal sols);
      Sparql.Mapping.Set.iter (fun mu -> Fmt.pf ppf "%a@." Sparql.Mapping.pp mu) sols;
      Format.pp_print_flush ppf ();
      count "sparql.print_bytes" (float_of_int (Buffer.length buf)))

(* [Engine.plan] of the pruned residual with the static width hints, as
   both [wdsparql eval] and the server's plan compiler do. *)
let plan_residual ?plan_capacity residual =
  let hints =
    if Sparql.Algebra.is_core residual then
      span "analysis.width_est" (fun () ->
          let b = counting () in
          let est = Width_est.estimate ~budget:b (Wdpt.Pattern_forest.of_algebra residual) in
          count "analysis.width_est_ticks" (ticks b);
          Width_est.hints est)
    else Engine.no_hints
  in
  let b = counting () in
  let plan = span "core.plan" (fun () -> Engine.plan ~budget:b ~hints ?plan_capacity residual) in
  count "core.plan_ticks" (ticks b);
  count "core.plan_dw" (float_of_int plan.Engine.domination_width);
  plan

let solutions plan graph =
  ignore (span "encoded.encode" (fun () -> Encoded.Encoded_graph.of_graph_cached graph));
  let b = counting () in
  let sols, stats = span "core.eval" (fun () -> Engine.solutions_stats ~budget:b plan graph) in
  count "core.eval_ticks" (ticks b);
  count "core.answers" (float_of_int (Sparql.Mapping.Set.cardinal sols));
  Option.iter cache_counters stats;
  sols

(* [wdsparql eval]: load, parse, prune, estimate widths, plan, evaluate,
   print — every op with the fresh state of a new process. *)
let replay_eval dir o =
  let graph = load_data (dir // o.data) in
  let src = read_file (dir // o.query) in
  let pattern, spans =
    span "sparql.parse" (fun () ->
        match Sparql.Parser.parse_spanned src with
        | Ok r -> r
        | Error msg -> fail "%s" msg)
  in
  let pruned = span "analysis.prune" (fun () -> Prune.run ~spans pattern) in
  let sols =
    match pruned.Prune.outcome with
    | Prune.Empty -> Sparql.Mapping.Set.empty
    | Prune.Pattern residual -> solutions (plan_residual residual) graph
  in
  print_solutions sols

(* [wdsparql check]: plan the unpruned pattern, decide membership. *)
let replay_check dir o =
  let graph = load_data (dir // o.data) in
  let pattern = span "sparql.parse" (fun () -> parse_query (dir // o.query)) in
  let mu = parse_mapping o.arg in
  let b = counting () in
  let plan = span "core.plan" (fun () -> Engine.plan ~budget:b pattern) in
  count "core.plan_ticks" (ticks b);
  count "core.plan_dw" (float_of_int plan.Engine.domination_width);
  ignore (span "encoded.encode" (fun () -> Encoded.Encoded_graph.of_graph_cached graph));
  let b = counting () in
  let member = span "core.eval" (fun () -> Engine.check ~budget:b plan graph mu) in
  count "core.eval_ticks" (ticks b);
  count "core.answers" (if member then 1. else 0.);
  cache_counters (Plan_cache.stats plan.Engine.cache);
  span "sparql.print" (fun () ->
      let line = Printf.sprintf "µ %s ⟦P⟧G\n" (if member then "∈" else "∉") in
      count "sparql.print_bytes" (float_of_int (String.length line)))

let chain_len path =
  match (Storage.info path).Storage.chain with
  | Storage.Chained segs -> List.length segs
  | Storage.Single | Storage.Sharded _ -> 0

let replay_append dir o =
  let store = dir // o.data in
  let adds = Graph.triples (load_ttl (dir // o.query)) in
  (match span "storage.append" (fun () -> Storage.append ~adds store) with
  | Some r ->
      let bytes = (Unix.stat r.Storage.app_file).Unix.st_size in
      count "storage.append_bytes_per_triple"
        (float_of_int bytes /. float_of_int (max 1 r.Storage.app_adds))
  | None -> ());
  count "storage.chain_len" (float_of_int (chain_len store))

let replay_compact dir o =
  let store = dir // o.data in
  ignore (span "storage.compact" (fun () -> Storage.compact store));
  count "storage.chain_len" (float_of_int (chain_len store))

let compile_store graph path =
  if Sys.file_exists path then Sys.remove path;
  span "storage.compile" (fun () ->
      Storage.save (Encoded.Encoded_graph.of_graph_cached graph) path);
  let i = Storage.info path in
  count "storage.bytes_per_triple"
    (float_of_int i.Storage.total_bytes /. float_of_int (max 1 i.Storage.triples))

let replay_op dir o =
  match o.kind with
  | "eval" -> replay_eval dir o
  | "check" -> replay_check dir o
  | "append" -> replay_append dir o
  | "compact" -> replay_compact dir o
  | k -> fail "cannot replay op kind %s" k

(* The server's path for one request on a warm process: parse,
   canonicalize, probe the plan cache (compile the pruned residual on a
   miss), evaluate. JSON and HTTP are not public calls, so they are left
   to the [server.overhead_ms] difference run.py computes. *)
let replay_request plans graph text =
  let pattern =
    span "sparql.parse" (fun () ->
        match Sparql.Parser.parse text with Ok p -> p | Error m -> fail "%s" m)
  in
  let canon = span "analysis.canonical" (fun () -> Canonical.of_pattern pattern) in
  let plan =
    match Hashtbl.find_opt plans canon.Canonical.key with
    | Some p -> p
    | None ->
        let residual =
          span "analysis.prune" (fun () ->
              match (Prune.run canon.Canonical.pattern).Prune.outcome with
              | Prune.Pattern r -> r
              | Prune.Empty -> canon.Canonical.pattern)
        in
        let p = plan_residual ~plan_capacity:1 residual in
        Hashtbl.replace plans canon.Canonical.key p;
        p
  in
  ignore (solutions plan graph)

let copy_file src dst = write_file dst (read_file src)

let timed f =
  let t0 = Trace.now () in
  f ();
  Trace.now () -. t0

(* Store ops mutate the store, so every pass starts from a fresh copy of
   the base store, [DIR/store.base]. *)
let replay dir cli_ids req_ids out =
  let ops = read_ops dir in
  let op_of id = List.assoc id ops in
  let cli_ids = read_ids cli_ids and req_ids = read_ids req_ids in
  let base = dir // "store.base" in
  let has_store = Sys.file_exists base in
  let fresh_store () =
    (* drop segments of an earlier pass, then restore the base *)
    Array.iter
      (fun f ->
        if String.length f >= 9 && String.sub f 0 9 = "store.wds" then
          Sys.remove (dir // f))
      (Sys.readdir dir);
    if has_store then copy_file base (dir // "store.wds")
  in
  let op_ms = Hashtbl.create 64 in
  (* a short warm-up pass, an untraced pass, then the traced pass: the
     difference of the last two is the tracing overhead; spans come from
     the traced pass only *)
  let warm_up = List.filteri (fun i _ -> i < 5) cli_ids in
  List.iter
    (fun (traced, ids) ->
      Trace.on := traced;
      fresh_store ();
      List.iter
        (fun id ->
          Trace.op := id;
          (* each op starts from the state of a fresh process: no
             memoized encodings and a compacted heap *)
          Encoded.Encoded_graph.clear_cache ();
          Gc.compact ();
          let dt = timed (fun () -> span "op" (fun () -> replay_op dir (op_of id))) in
          Hashtbl.replace op_ms (id, traced) dt)
        ids)
    [ (false, warm_up); (false, cli_ids); (true, cli_ids) ];
  (* warm server-path replay: one load, plans cached by canonical key;
     each request timed after one warm-up evaluation of its query *)
  Trace.on := true;
  let req_ms = Buffer.create 1024 in
  (* the store is left as the traced pass wrote it: the state the
     server phase of run.py read *)
  if req_ids <> [] then begin
    Encoded.Encoded_graph.clear_cache ();
    Trace.op := -2;
    let data = (op_of (List.hd req_ids)).data in
    let graph = load_data (dir // data) in
    let plans = Hashtbl.create 64 in
    let warm = Hashtbl.create 64 in
    List.iter
      (fun id ->
        let text = read_file (dir // (op_of id).query) in
        if not (Hashtbl.mem warm text) then begin
          Trace.op := -2;
          replay_request plans graph text;
          Hashtbl.replace warm text ()
        end;
        Trace.op := id;
        let dt = timed (fun () -> span "op" (fun () -> replay_request plans graph text)) in
        Buffer.add_string req_ms (Printf.sprintf "%d\t%.9f\n" id dt))
      req_ids
  end;
  (* layer probes on this workload's inputs: the storage layer (compile,
     load, append, compact) and canonicalization of every query the
     replay saw, so each layer has a figure on every workload *)
  Trace.op := -1;
  Encoded.Encoded_graph.clear_cache ();
  let probe_graph =
    let data =
      match List.find_opt (fun (_, o) -> o.data <> "" && o.cls <> "literal") ops with
      | Some (_, o) -> o.data
      | None -> "social.ttl"
    in
    let data = if Filename.check_suffix data ".wds" then "social.ttl" else data in
    load_ttl (dir // data)
  in
  let probe = dir // "probe.wds" in
  compile_store probe_graph probe;
  ignore (load_data probe);
  let adds = Graph.triples (parse_ttl (dir // "delta_000.ttl")) in
  (match span "storage.append" (fun () -> Storage.append ~adds probe) with
  | Some r ->
      let bytes = (Unix.stat r.Storage.app_file).Unix.st_size in
      count "storage.append_bytes_per_triple"
        (float_of_int bytes /. float_of_int (max 1 r.Storage.app_adds))
  | None -> ());
  count "storage.chain_len" (float_of_int (chain_len probe));
  ignore (span "storage.compact" (fun () -> Storage.compact probe));
  List.iter
    (fun id ->
      let p = parse_query (dir // (op_of id).query) in
      ignore (span "analysis.canonical" (fun () -> Canonical.of_pattern p)))
    (List.sort_uniq compare (cli_ids @ req_ids)
    |> List.filter (fun id -> (op_of id).query <> "" && (op_of id).kind <> "append"));
  Trace.write out;
  let b = Buffer.create 1024 in
  Hashtbl.iter
    (fun (id, traced) dt ->
      Buffer.add_string b (Printf.sprintf "%d\t%d\t%.9f\n" id (Bool.to_int traced) dt))
    op_ms;
  write_file (out // "ops.tsv") (Buffer.contents b);
  write_file (out // "requests.tsv") (Buffer.contents req_ms)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ dir; cli_ids; req_ids; out ] -> replay dir cli_ids req_ids out
  | _ ->
      prerr_endline "usage: wdtrace DIR CLI_OPS REQS OUT";
      exit 2
