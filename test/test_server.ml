(* PR 6: the long-running endpoint (lib/server). Units for the HTTP
   subset, the deterministic fault schedule, and admission control; then
   the end-to-end smoke test the issue asks for — start on an ephemeral
   port, serve one query, shed one request, reject one malformed frame,
   SIGTERM-drain, and come back with every descriptor closed. *)

module Io = Wd_server.Io
module Http = Wd_server.Http
module Faults = Wd_server.Faults
module Admission = Wd_server.Admission
module Server = Wd_server.Server
module Json = Analysis.Json
module Budget = Resource.Budget

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* HTTP parsing over a socketpair                                      *)
(* ------------------------------------------------------------------ *)

(* Feed raw bytes to one end of a socketpair and parse them off the
   other through the real Io/Http stack. The test is the client here,
   so plain Unix writes on [a] are fine (the lint rule covers lib/). *)
let with_request raw f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Io.of_fd b in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      Io.close conn)
    (fun () ->
      let n = Unix.write_substring a raw 0 (String.length raw) in
      check Alcotest.int "request fits the socket buffer"
        (String.length raw) n;
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      f conn)

let deadline () = Unix.gettimeofday () +. 2.

let test_http_get () =
  with_request
    "GET /sparql?query=%7B%20%3Fa%20p%3Aknows%20%3Fb%20%7D&x=1+2 \
     HTTP/1.1\r\n\
     Host: localhost\r\n\
     \r\n"
    (fun conn ->
      let req =
        Http.read_request conn ~deadline:(deadline ()) ~max_bytes:4096
      in
      check Alcotest.string "method" "GET" req.Http.meth;
      check Alcotest.string "path" "/sparql" req.Http.path;
      check Alcotest.(option string) "decoded query parameter"
        (Some "{ ?a p:knows ?b }")
        (List.assoc_opt "query" req.Http.query);
      check Alcotest.(option string) "plus decodes to space" (Some "1 2")
        (List.assoc_opt "x" req.Http.query);
      check Alcotest.(option string) "headers lowercased" (Some "localhost")
        (Http.header "HOST" req))

let test_http_post_body () =
  let body = "{ ?a p:knows ?b }" in
  with_request
    (Printf.sprintf
       "POST /sparql HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
       (String.length body) body)
    (fun conn ->
      let req =
        Http.read_request conn ~deadline:(deadline ()) ~max_bytes:4096
      in
      check Alcotest.string "method" "POST" req.Http.meth;
      check Alcotest.string "body read to Content-Length" body req.Http.body)

let test_http_malformed () =
  let raises_malformed raw =
    with_request raw (fun conn ->
        match
          Http.read_request conn ~deadline:(deadline ()) ~max_bytes:4096
        with
        | _ -> Alcotest.fail "malformed request parsed"
        | exception Http.Malformed _ -> ())
  in
  raises_malformed "BOGUS\r\n\r\n";
  raises_malformed "GET /x HTTP/3.0\r\n\r\n";
  raises_malformed "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n";
  (* the subset excludes chunked bodies *)
  raises_malformed
    "POST /sparql HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  (* bad percent escape in the query string *)
  raises_malformed "GET /sparql?query=%zz HTTP/1.1\r\n\r\n"

let test_http_too_large () =
  with_request
    (Printf.sprintf "POST /sparql HTTP/1.1\r\nContent-Length: 300\r\n\r\n%s"
       (String.make 300 'q'))
    (fun conn ->
      match
        Http.read_request conn ~deadline:(deadline ()) ~max_bytes:128
      with
      | _ -> Alcotest.fail "oversized body accepted"
      | exception Io.Too_large -> ())

let test_http_disconnect () =
  with_request "GET /spar" (fun conn ->
      match
        Http.read_request conn ~deadline:(deadline ()) ~max_bytes:4096
      with
      | _ -> Alcotest.fail "truncated request parsed"
      | exception Io.Disconnected -> ())

let test_io_fd_accounting () =
  let before = Io.live () in
  with_request "GET / HTTP/1.1\r\n\r\n" (fun conn ->
      check Alcotest.int "wrapping a socket raises live" (before + 1)
        (Io.live ());
      ignore (Http.read_request conn ~deadline:(deadline ()) ~max_bytes:4096);
      Io.close conn;
      Io.close conn (* idempotent *));
  check Alcotest.int "closing restores the baseline" before (Io.live ())

(* ------------------------------------------------------------------ *)
(* Deterministic fault schedule                                        *)
(* ------------------------------------------------------------------ *)

let test_faults_parse () =
  let ok spec = Result.is_ok (Faults.parse spec)
  and err spec = Result.is_error (Faults.parse spec) in
  check Alcotest.bool "empty spec means no faults" true (ok "");
  check Alcotest.bool "full spec parses" true
    (ok "disconnect:11,slow:9,malformed:5,starve:7,poison:13");
  check Alcotest.bool "unknown kind rejected" true (err "bogus:3");
  check Alcotest.bool "zero period rejected" true (err "slow:0");
  check Alcotest.bool "negative period rejected" true (err "slow:-2");
  check Alcotest.bool "non-numeric period rejected" true (err "slow:x");
  check Alcotest.bool "duplicate kind rejected" true (err "slow:2,slow:3");
  check Alcotest.bool "missing period rejected" true (err "slow")

let test_faults_schedule () =
  let t = Result.get_ok (Faults.parse "disconnect:3,slow:2") in
  let kind = Alcotest.option (Alcotest.testable Fmt.nop ( = )) in
  check kind "no fault for request 1" None (Faults.for_request t 1);
  check kind "period 2 arms slow" (Some Faults.Slow) (Faults.for_request t 2);
  check kind "period 3 arms disconnect" (Some Faults.Disconnect)
    (Faults.for_request t 3);
  (* both periods divide 6: priority picks exactly one *)
  check kind "priority breaks ties" (Some Faults.Disconnect)
    (Faults.for_request t 6);
  check kind "non-positive indices are never faulted" None
    (Faults.for_request t 0);
  check kind "empty schedule injects nothing" None
    (Faults.for_request Faults.none 6);
  (* the schedule is a pure function of the index: a harness can
     reconcile server counters against its own simulation *)
  let sim = List.init 100 (fun i -> Faults.for_request t (i + 1)) in
  (* multiples of 2 or 3 in 1..100: 50 + 33 - 16 *)
  check Alcotest.int "exactly the predicted fault volume" 67
    (List.length (List.filter Option.is_some sim))

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let admission_config =
  {
    Admission.request_fuel = 10;
    request_timeout = 5.;
    max_solutions = None;
    global_fuel = Some 20;
    refill_rate = 0.;
    max_inflight = 3;
  }

let test_admission_watermarks () =
  let t = Admission.create admission_config in
  let l1 = Result.get_ok (Admission.try_admit t) in
  let l2 = Result.get_ok (Admission.try_admit t) in
  check Alcotest.(option int) "two grants drain the bucket" (Some 0)
    (Admission.bucket_level t);
  (* slots remain, tokens do not: shed on the budget watermark, and the
     failed admission must roll its slot reservation back *)
  (match Admission.try_admit t with
  | Ok _ -> Alcotest.fail "admitted past the global budget"
  | Error (Admission.Budget_watermark, retry) ->
      check Alcotest.bool "Retry-After is at least a second" true (retry >= 1.)
  | Error (Admission.Inflight_watermark, _) ->
      Alcotest.fail "shed on the wrong watermark");
  check Alcotest.int "failed admission rolled back its slot" 2
    (Admission.inflight t);
  (* an unspent release returns the full grant *)
  Admission.release t l1;
  check Alcotest.(option int) "released fuel refills the bucket" (Some 10)
    (Admission.bucket_level t);
  check Alcotest.int "slot freed" 1 (Admission.inflight t);
  let l3 = Result.get_ok (Admission.try_admit t) in
  let _l4 =
    (* inflight is 2 of 3 but the bucket is empty again *)
    match Admission.try_admit t with
    | Ok _ -> Alcotest.fail "admitted with an empty bucket"
    | Error (Admission.Budget_watermark, _) -> ()
    | Error (Admission.Inflight_watermark, _) ->
        Alcotest.fail "shed on the wrong watermark"
  in
  Admission.release t l2;
  Admission.release t l3;
  check Alcotest.int "all slots freed" 0 (Admission.inflight t);
  check Alcotest.int "three admissions" 3 (Admission.admitted t);
  check Alcotest.int "two budget sheds" 2 (Admission.shed_tokens t)

let test_admission_inflight_watermark () =
  let t =
    Admission.create
      { admission_config with global_fuel = None; max_inflight = 1 }
  in
  let l1 = Result.get_ok (Admission.try_admit t) in
  (match Admission.try_admit t with
  | Ok _ -> Alcotest.fail "admitted past the in-flight watermark"
  | Error (Admission.Inflight_watermark, retry) ->
      check Alcotest.bool "Retry-After is at least a second" true (retry >= 1.)
  | Error (Admission.Budget_watermark, _) ->
      Alcotest.fail "shed on the wrong watermark");
  Admission.release t l1;
  check Alcotest.int "one in-flight shed" 1 (Admission.shed_inflight t);
  check Alcotest.(option int) "no bucket without a global budget" None
    (Admission.bucket_level t)

let test_admission_starvation () =
  let t = Admission.create { admission_config with global_fuel = None } in
  let lease = Result.get_ok (Admission.try_admit ~starve:true t) in
  check Alcotest.int "the grant is accounted at full price"
    admission_config.Admission.request_fuel lease.Admission.fuel;
  (* ... but the budget itself is nearly empty: evaluation trips the
     budget-exhaustion path almost immediately *)
  (match
     Budget.with_phase lease.Admission.budget "test" (fun () ->
         for _ = 1 to 16 do
           Budget.tick lease.Admission.budget
         done)
   with
  | () -> Alcotest.fail "starved budget survived 16 ticks"
  | exception Budget.Exhausted { phase; _ } ->
      check Alcotest.string "the tripping phase is reported" "test" phase);
  Admission.release t lease

(* ------------------------------------------------------------------ *)
(* End-to-end smoke (satellite 6)                                      *)
(* ------------------------------------------------------------------ *)

(* A blocking one-shot HTTP client: connect, send, read to EOF (the
   server closes every connection), return (status, header lines, body). *)
let http_request ~port raw =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let rec send off =
        if off < String.length raw then
          send (off + Unix.write_substring fd raw off (String.length raw - off))
      in
      send 0;
      let buf = Bytes.create 4096 and out = Buffer.create 256 in
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes out buf 0 n;
            drain ()
      in
      drain ();
      Buffer.contents out)

let response_status raw =
  match String.split_on_char ' ' raw with
  | _http :: code :: _ -> int_of_string code
  | _ -> Alcotest.failf "unparseable response: %S" raw

let response_header name raw =
  let lower = String.lowercase_ascii in
  String.split_on_char '\n' raw
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when lower (String.sub line 0 i) = lower name ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

let get ~port path = http_request ~port (Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path)

let post_query ~port q =
  http_request ~port
    (Printf.sprintf "POST /sparql HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
       (String.length q) q)

let smoke_config () =
  let fuel = 200_000 in
  {
    Server.graph = Rdf.Generator.social ~seed:3 ~people:12;
    reload = None;
    host = "127.0.0.1";
    port = 0;
    workers = 2;
    queue_capacity = 4;
    admission =
      {
        Admission.request_fuel = fuel;
        request_timeout = 5.;
        max_solutions = None;
        (* the bucket holds exactly one grant and never refills: the
           first query leaves it short, so the next /sparql is a
           deterministic 503 shed *)
        global_fuel = Some fuel;
        refill_rate = 0.;
        max_inflight = 4;
      };
    max_request_bytes = 1 lsl 16;
    io_timeout = 2.;
    faults = Faults.none;
    plan_capacity = 4;
  }

let test_smoke () =
  let fd_baseline = Io.live () in
  let t = Server.start (smoke_config ()) in
  Server.install_signal_handlers t;
  let port = Server.port t in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default)
    (fun () ->
      let health = get ~port "/health" in
      check Alcotest.int "health is 200" 200 (response_status health);
      check Alcotest.bool "health says ok" true
        (Astring.String.is_infix ~affix:"\"ok\"" health);
      (* one real query *)
      let ok = post_query ~port "{ ?a p:knows ?b }" in
      check Alcotest.int "query is 200" 200 (response_status ok);
      check Alcotest.bool "SPARQL JSON results" true
        (Astring.String.is_infix ~affix:"bindings" ok);
      (* one shed: the bucket cannot cover a second grant *)
      let shed = post_query ~port "{ ?a p:knows ?b }" in
      check Alcotest.int "second query is shed with 503" 503
        (response_status shed);
      check Alcotest.bool "shed carries Retry-After" true
        (Option.is_some (response_header "retry-after" shed));
      (* one malformed frame *)
      let bad = http_request ~port "NOT_HTTP\r\n\r\n" in
      check Alcotest.int "malformed frame is 400" 400 (response_status bad);
      (* endpoints that bypass admission still serve while shedding *)
      let stats = get ~port "/stats" in
      check Alcotest.int "stats is 200" 200 (response_status stats);
      check Alcotest.int "unknown path is 404" 404
        (response_status (get ~port "/nope"));
      (* SIGTERM drains: join completes, the port closes, no fd leaks *)
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      let final = Server.join t in
      (match
         Json.member "responses" final |> Option.get |> Json.member "200"
       with
      | Some n ->
          check Alcotest.bool "final stats count the successes" true
            (Option.value ~default:0 (Json.to_int n) >= 3)
      | None -> Alcotest.fail "final stats lack a responses section");
      (match http_request ~port "GET /health HTTP/1.1\r\n\r\n" with
      | _ -> Alcotest.fail "listener still accepting after drain"
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET), _, _)
        -> ());
      check Alcotest.int "every server descriptor closed" fd_baseline
        (Io.live ()))

(* PR 9: SIGHUP-style reload picks up freshly appended delta segments
   without dropping the listener or in-flight connections. *)
let test_reload_picks_up_segments () =
  let dir = Filename.temp_file "wdsparql_srv_reload" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      let path = Filename.concat dir "s.wds" in
      let g = Rdf.Generator.path ~n:3 ~pred:"knows" in
      Storage.save (Encoded.Encoded_graph.of_graph g) path;
      let config =
        {
          (smoke_config ()) with
          Server.graph = Storage.load_graph path;
          reload = Some (fun () -> Storage.load_graph path);
          admission =
            {
              Admission.request_fuel = 200_000;
              request_timeout = 5.;
              max_solutions = None;
              global_fuel = None;
              refill_rate = 0.;
              max_inflight = 4;
            };
        }
      in
      let t = Server.start config in
      let port = Server.port t in
      let count_bindings body =
        (* one "?a ↦" pair per solution: count subject keys *)
        let rec go i n =
          match Astring.String.find_sub ~start:i ~sub:"{\"a\"" body with
          | Some j -> go (j + 1) (n + 1)
          | None -> n
        in
        go 0 0
      in
      Fun.protect
        ~finally:(fun () ->
          Server.initiate_drain t;
          ignore (Server.join t))
        (fun () ->
          let before = post_query ~port "{ ?a p:knows ?b }" in
          check Alcotest.int "query before reload is 200" 200
            (response_status before);
          check Alcotest.int "two edges before the append" 2
            (count_bindings before);
          (* append a segment behind the server's back, then signal *)
          let knows = Rdf.Term.iri "p:knows" in
          let n k = Rdf.Term.iri (Printf.sprintf "n:%d" k) in
          (match
             Storage.append ~adds:[ Rdf.Triple.make (n 3) knows (n 4) ] path
           with
          | Some _ -> ()
          | None -> Alcotest.fail "append was a no-op");
          Server.request_reload t;
          (* a worker services the reload between requests; poll *)
          let deadline = Unix.gettimeofday () +. 5. in
          let rec wait () =
            let resp = post_query ~port "{ ?a p:knows ?b }" in
            check Alcotest.int "query during reload window is 200" 200
              (response_status resp);
            if count_bindings resp = 3 then ()
            else if Unix.gettimeofday () > deadline then
              Alcotest.failf "reload never surfaced (last saw %d bindings)"
                (count_bindings resp)
            else begin
              Thread.delay 0.05;
              wait ()
            end
          in
          wait ();
          let stats = get ~port "/stats" in
          check Alcotest.bool "stats count the reload" true
            (Astring.String.is_infix ~affix:"\"reloads\": 1" stats
            || Astring.String.is_infix ~affix:"\"reloads\":1" stats)))

(* Result bindings follow the SPARQL 1.1 JSON format: literals, which
   the engine carries as reserved-namespace IRIs, come back as
   "literal" terms with their language tag or datatype, never as IRIs. *)
(* Run [f port] against a server over [graph] with no global budget, so
   every query is admitted, then drain it. *)
let with_open_server graph f =
  let t =
    Server.start
      {
        (smoke_config ()) with
        Server.graph;
        admission =
          {
            Admission.request_fuel = 200_000;
            request_timeout = 5.;
            max_solutions = None;
            global_fuel = None;
            refill_rate = 0.;
            max_inflight = 4;
          };
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.initiate_drain t;
      ignore (Server.join t))
    (fun () -> f (Server.port t))

(* POST [q], expect a 200, and return the parsed JSON body. *)
let query_json ~port q =
  let resp = post_query ~port q in
  check Alcotest.int "query is 200" 200 (response_status resp);
  match Astring.String.cut ~sep:"\r\n\r\n" resp with
  | None -> Alcotest.failf "response has no body: %S" resp
  | Some (_, body) -> (
      match Json.of_string body with
      | Ok j -> j
      | Error e -> Alcotest.failf "body is not JSON (%s): %S" e body)

let test_literal_bindings () =
  let xsd_int = "http://www.w3.org/2001/XMLSchema#integer" in
  let graph =
    match
      Rdf.Turtle.parse_graph
        (Printf.sprintf
           "n:alice p:name \"Alice\"@en .\n\
            n:alice p:age \"42\"^^<%s> .\n\
            n:alice p:nick \"ally\" .\n\
            n:alice p:knows n:bob .\n"
           xsd_int)
    with
    | Ok g -> g
    | Error e -> Alcotest.failf "fixture does not parse: %s" e
  in
  with_open_server graph (fun port ->
      let j =
        query_json ~port
          "{ ?s p:name ?name . ?s p:age ?age . ?s p:nick ?nick . ?s p:knows \
           ?f }"
      in
      let bindings =
        match
          Option.bind (Json.member "results" j) (Json.member "bindings")
          |> Fun.flip Option.bind Json.to_list
        with
        | Some [ b ] -> b
        | _ ->
            Alcotest.failf "expected exactly one solution: %s"
              (Json.to_string j)
      in
      let term = Alcotest.testable Json.pp ( = ) in
      let sorted = function
        | Json.Obj kvs -> Json.Obj (List.sort compare kvs)
        | j -> j
      in
      let expect var fields =
        check term var
          (sorted
             (Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) fields)))
          (sorted
             (Option.value ~default:Json.Null (Json.member var bindings)))
      in
      expect "s" [ ("type", "uri"); ("value", "n:alice") ];
      expect "f" [ ("type", "uri"); ("value", "n:bob") ];
      expect "name"
        [ ("type", "literal"); ("value", "Alice"); ("xml:lang", "en") ];
      expect "age"
        [ ("type", "literal"); ("value", "42"); ("datatype", xsd_int) ];
      expect "nick" [ ("type", "literal"); ("value", "ally") ])

(* A variable bound only inside a pruned subtree still heads the
   results: pruning may drop the unsatisfiable OPTIONAL arm, but the
   query as written projects ?z, exactly like its satisfiable
   spelling. *)
let test_head_vars_survive_pruning () =
  with_open_server (smoke_config ()).Server.graph (fun port ->
      let head_vars q =
        let j = query_json ~port q in
        match
          Option.bind (Json.member "head" j) (Json.member "vars")
          |> Fun.flip Option.bind Json.to_list
        with
        | Some vs ->
            List.map
              (function
                | Json.String v -> v
                | v -> Alcotest.failf "non-string head var %a" Json.pp v)
              vs
        | None -> Alcotest.failf "no head.vars in %s" (Json.to_string j)
      in
      let vars = Alcotest.(list string) in
      check vars "satisfiable spelling" [ "x"; "y"; "z" ]
        (head_vars "{ ?x p:knows ?y OPTIONAL { ?x p:email ?z } }");
      check vars "pruned spelling keeps ?z" [ "x"; "y"; "z" ]
        (head_vars
           "{ ?x p:knows ?y OPTIONAL { ?x p:email ?z FILTER (?z != ?z) } }"))

(* A poisoned request must fail alone. Request 1 evaluates a slow query
   under the plan entry's lock; requests 2 (healthy) and 3 (poisoned by
   the schedule) arrive for the same plan key while it runs, so both hold
   the shared entry when the poison lands. Only request 3 may answer
   500. *)
let test_poison_spares_concurrent_requests () =
  let slow =
    Sparql.Printer.to_string
      (Wdpt.Pattern_forest.to_algebra [ Workload.Query_families.clique_child 5 ])
  in
  let graph, _ = Workload.Graph_families.planted_instance ~seed:1 ~n:24 ~k:3 in
  let t =
    Server.start
      {
        (smoke_config ()) with
        Server.graph = graph;
        workers = 3;
        io_timeout = 30.;
        faults = Result.get_ok (Faults.parse "poison:3");
        admission =
          {
            Admission.request_fuel = max_int / 2;
            request_timeout = 60.;
            max_solutions = None;
            global_fuel = None;
            refill_rate = 0.;
            max_inflight = 4;
          };
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.initiate_drain t;
      ignore (Server.join t))
    (fun () ->
      let port = Server.port t in
      let in_thread f =
        let result = ref None in
        let th = Thread.create (fun () -> result := Some (f ())) () in
        fun () ->
          Thread.join th;
          Option.get !result
      in
      let timed () =
        let status = response_status (post_query ~port slow) in
        (status, Unix.gettimeofday ())
      in
      (* the pauses only fix the accept order, hence the fault index *)
      let first = in_thread timed in
      Thread.delay 0.05;
      let second = in_thread timed in
      Thread.delay 0.05;
      let sent_third = Unix.gettimeofday () in
      let third, _ = timed () in
      let first, first_done = first () in
      let second, _ = second () in
      check Alcotest.bool "requests 2 and 3 arrived while 1 ran" true
        (sent_third < first_done);
      check Alcotest.int "request 1 is 200" 200 first;
      check Alcotest.int "healthy request on the poisoned key is 200" 200
        second;
      check Alcotest.int "poisoned request is 500" 500 third;
      let plans = Json.member "plan_cache" (Server.stats_json t) in
      check Alcotest.(option int) "the poisoned entry was evicted" (Some 1)
        (Option.bind plans (Json.member "entry_evictions")
        |> Fun.flip Option.bind Json.to_int))

let () =
  Alcotest.run "server"
    [
      ( "http",
        [
          Alcotest.test_case "GET with encoded query" `Quick test_http_get;
          Alcotest.test_case "POST body" `Quick test_http_post_body;
          Alcotest.test_case "malformed frames" `Quick test_http_malformed;
          Alcotest.test_case "oversized body" `Quick test_http_too_large;
          Alcotest.test_case "truncated request" `Quick test_http_disconnect;
          Alcotest.test_case "fd accounting" `Quick test_io_fd_accounting;
        ] );
      ( "faults",
        [
          Alcotest.test_case "spec parsing" `Quick test_faults_parse;
          Alcotest.test_case "deterministic schedule" `Quick
            test_faults_schedule;
        ] );
      ( "admission",
        [
          Alcotest.test_case "budget watermark and rollback" `Quick
            test_admission_watermarks;
          Alcotest.test_case "in-flight watermark" `Quick
            test_admission_inflight_watermark;
          Alcotest.test_case "budget starvation" `Quick
            test_admission_starvation;
        ] );
      ( "results",
        [
          Alcotest.test_case "literals are typed SPARQL JSON terms" `Quick
            test_literal_bindings;
          Alcotest.test_case "pruned variables stay in the head" `Quick
            test_head_vars_survive_pruning;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "serve, shed, reject, drain" `Quick test_smoke;
          Alcotest.test_case "reload picks up appended segments" `Quick
            test_reload_picks_up_segments;
          Alcotest.test_case "poison fails only its own request" `Quick
            test_poison_spares_concurrent_requests;
        ] );
    ]
