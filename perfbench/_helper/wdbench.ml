(* wdbench: seeded inputs and expected answers (driven by perfbench/run.py).

     wdbench gen WORKLOAD SEED DIR        write the seeded inputs and op plan
     wdbench expect DIR IDS CACHE OUT     expected answers of the listed ops

   [gen] writes every input the program will see (Turtle files, query
   files, delta files) into DIR, plus [ops.tsv], the op sequence of the
   workload, one op per line:

     id  class  kind  data  query  arg  key  round

   where [kind] is [eval], [check], [append] or [compact] and
   [key] names the expected answer of the op. Round 0 is the
   literal-selecting probe, sent to a server apart from the workload;
   the workload's ops follow in rounds with its exact class mix.
   [expect] evaluates the keys with the reference evaluators
   ([Sparql.Eval] for point lookups, [Wdpt.Semantics] for the full-scan
   queries, [Wd_core.Naive_eval] for wdEVAL verdicts) into OUT:

     key  rows  digest

   A digest is order-independent: the sum, modulo 2^64, of the first
   eight bytes (little-endian) of the MD5 of each row's canonical text.
   A row's canonical text is its bindings sorted by variable name, each
   written [?var=TERM] and joined by single spaces, where TERM is [<iri>]
   for an IRI and ["value"@lang], ["value"^^<dt>] or ["value"] for a
   literal — the SPARQL 1.1 JSON term types. *)

open Rdf
open Common

(* ------------------------------------------------------------------ *)
(* Answers                                                             *)
(* ------------------------------------------------------------------ *)

let term_text iri =
  match Literal.decode iri with
  | Some { Literal.value; lang = Some l; _ } -> Printf.sprintf "%S@%s" value l
  | Some { Literal.value; datatype = Some dt; _ } ->
      Printf.sprintf "%S^^<%s>" value (Iri.to_string dt)
  | Some { Literal.value; _ } -> Printf.sprintf "%S" value
  | None -> "<" ^ Iri.to_string iri ^ ">"

let row_text mu =
  Sparql.Mapping.to_list mu
  |> List.map (fun (v, i) -> (Variable.to_string v, term_text i))
  |> List.sort compare
  |> List.map (fun (v, t) -> Printf.sprintf "?%s=%s" v t)
  |> String.concat " "

let digest sols =
  let sum =
    Sparql.Mapping.Set.fold
      (fun mu acc ->
        Int64.add acc (String.get_int64_le (Digest.string (row_text mu)) 0))
      sols 0L
  in
  Printf.sprintf "%016Lx" sum

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let people = 2000
let person i = Term.iri (Printf.sprintf "person:%d" i)
let p_name = Term.iri "p:name"
let p_knows = Term.iri "p:knows"
let lit v = Term.Iri (Literal.encode (Literal.lang_tagged v "en"))

let given_names =
  [| "Ada"; "Bo"; "Cai"; "Dara"; "Eli"; "Fen"; "Gus"; "Hana"; "Ira"; "Jo";
     "Kai"; "Lea"; "Mo"; "Nia"; "Oto"; "Pia" |]

let name_triple st i =
  let g = given_names.(Random.State.int st (Array.length given_names)) in
  Triple.make (person i) p_name (lit (Printf.sprintf "%s%d" g i))

(* The social network of [Generator.social] plus one language-tagged
   [p:name] literal per person, so answers carry literals. *)
let social seed =
  let st = Random.State.make [| seed; 17 |] in
  let names = List.init people (name_triple st) in
  Graph.of_triples (names @ Graph.triples (Generator.social ~seed ~people))

(* Zipf(1) over [0, n): early people are the hubs of [Generator.social]. *)
let zipf n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  fun st ->
    let u = Random.State.float st !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

let profile_rq =
  "{ ?who p:knows ?friend .\n\
  \  OPTIONAL { ?friend p:worksAt ?office }\n\
  \  OPTIONAL { ?friend p:email ?mail } }\n"

let deep_profile_rq =
  "{ ?a p:knows ?b . ?b p:knows ?c .\n\
  \  OPTIONAL { ?c p:worksAt ?office . OPTIONAL { ?office p:livesIn ?city } } }\n"

let colleagues_rq =
  "{ ?a p:worksAt ?c . ?b p:worksAt ?c }\n\
   UNION\n\
   { ?a p:livesIn ?t . ?b p:livesIn ?t }\n"

(* Point lookups of the CLI workloads; the first selects the name
   literal, which the CLI prints in its own text form. *)
let cli_point_shapes =
  [| (fun n -> Printf.sprintf "{ person:%d p:knows ?f . OPTIONAL { ?f p:name ?n } }" n);
     (fun n ->
       Printf.sprintf
         "{ person:%d p:type ?t . OPTIONAL { person:%d p:worksAt ?c . \
          OPTIONAL { ?c p:livesIn ?city } } OPTIONAL { person:%d p:email ?m } }"
         n n n);
     (fun n -> Printf.sprintf "{ ?f p:knows person:%d . OPTIONAL { ?f p:livesIn ?t } }" n) |]

let literal_shape n = Printf.sprintf "{ person:%d p:name ?n }" n

(* Query files are content-addressed so repeated queries share a file
   and an expected-answer key. *)
let query_file dir text =
  let name = "q_" ^ Digest.to_hex (Digest.string text) ^ ".rq" in
  if not (Sys.file_exists (dir // name)) then write_file (dir // name) text;
  name

(* Ops come in rounds, each with the workload's exact class mix; the
   benchmark ends a run on a round boundary. *)
let write_ops dir rounds =
  let buf = Buffer.create 4096 in
  let id = ref 0 in
  List.iteri
    (fun r ops ->
      List.iter
        (fun o ->
          Buffer.add_string buf
            (String.concat "\t"
               [ string_of_int !id; o.cls; o.kind; o.data; o.query; o.arg; o.key;
                 string_of_int r ]);
          Buffer.add_char buf '\n';
          incr id)
        ops)
    rounds;
  write_file (dir // "ops.tsv") (Buffer.contents buf)

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* [n] rounds, each a shuffle of [round ()]'s exact class counts. *)
let rounds st n round = List.init n (fun _ -> shuffle st (round ()))

let eval_op dir ~cls ~data ?(state = "") text =
  let q = query_file dir text in
  { cls; kind = "eval"; data; query = q; arg = ""; key = q ^ state }

let gen_social dir seed =
  write_file (dir // "social.ttl") (Turtle.to_string (social seed))

let gen_cli_cold_ops st dir =
  let pick = zipf people in
  let point () =
    let shape = Random.State.int st (Array.length cli_point_shapes) in
    eval_op dir ~cls:"point" ~data:"social.ttl" (cli_point_shapes.(shape) (pick st))
  in
  let op cls text = eval_op dir ~cls ~data:"social.ttl" text in
  rounds st 60 (fun () ->
      List.init 9 (fun _ -> point ())
      @ [ op "profile" profile_rq; op "profile" profile_rq;
          op "deep_profile" deep_profile_rq;
          op "colleagues" colleagues_rq; op "colleagues" colleagues_rq ])

(* ~100 seeded triples: new [p:knows] edges and second names. *)
let delta st =
  let pick = zipf people in
  List.init 100 (fun _ ->
      if Random.State.int st 5 = 0 then name_triple st (Random.State.int st people)
      else Triple.make (person (Random.State.int st people)) p_knows (person (pick st)))

let cycles = 400

(* A round is eight cycles: each appends a delta and reads the new
   state; the eighth ends with a compaction. *)
let gen_store_update_ops st dir =
  let pick = zipf people in
  let ops = ref [] and rounds = ref [] in
  let push o = ops := o :: !ops in
  for c = 0 to cycles - 1 do
    let file = Printf.sprintf "delta_%03d.ttl" c in
    write_file (dir // file) (Turtle.to_string (Graph.of_triples (delta st)));
    push { cls = "append"; kind = "append"; data = "store.wds"; query = file;
           arg = ""; key = "" };
    let state = Printf.sprintf "@%d" (c + 1) in
    (* profile.rq on every fourth state keeps its reference evaluation
       (one full scan per state) within the run's set-up budget *)
    let reads =
      List.init 8 (fun _ ->
          let shape = Random.State.int st (Array.length cli_point_shapes) in
          eval_op dir ~cls:"point" ~data:"store.wds" ~state
            (cli_point_shapes.(shape) (pick st)))
      @
      if c mod 4 = 3 then [ eval_op dir ~cls:"profile" ~data:"store.wds" ~state profile_rq ]
      else []
    in
    List.iter push (shuffle st reads);
    if (c + 1) mod 8 = 0 then begin
      push { cls = "compact"; kind = "compact"; data = "store.wds"; query = "";
             arg = ""; key = "" };
      rounds := List.rev !ops :: !rounds;
      ops := []
    end
  done;
  List.rev !rounds

let mu_arg = "x=n:anchor,y=t:0"

let forest_text forest =
  Sparql.Printer.to_string (Wdpt.Pattern_forest.to_algebra forest)

(* wdEVAL instances cycle through this many tournament seeds, so the
   exponential reference verdicts are computed once per instance and
   cached; the op order still follows the full seed. *)
let wdeval_instances = 4

let gen_wdeval_ops st dir seed =
  let seed = seed mod wdeval_instances in
  let tour, _ = Workload.Graph_families.tournament_instance ~seed ~n:32 in
  let planted, _ = Workload.Graph_families.planted_instance ~seed ~n:31 ~k:3 in
  write_file (dir // "tournament.ttl") (Turtle.to_string tour);
  write_file (dir // "planted.ttl") (Turtle.to_string planted);
  let check cls data forest =
    let q = query_file dir (forest_text forest) in
    { cls; kind = "check"; data; query = q; arg = mu_arg; key = data ^ "|" ^ q }
  in
  let f k = check (Printf.sprintf "f%d" k) "tournament.ttl" (Workload.Query_families.f_k k) in
  let clique k =
    check (Printf.sprintf "clique%d" k) "planted.ttl"
      [ Workload.Query_families.clique_child k ]
  in
  let grid =
    let q =
      query_file dir (forest_text [ Workload.Query_families.grid_query ~rows:4 ~cols:4 ])
    in
    { cls = "grid"; kind = "eval"; data = "tournament.ttl"; query = q; arg = "";
      key = "tournament.ttl|" ^ q }
  in
  (* eight clique_child 3 checks, the fastest class, put the median in
     the middle of the F_8 checks *)
  rounds st 40 (fun () ->
      [ f 10; f 9; f 9; f 9; grid; grid; clique 4; clique 4 ]
      @ List.init 6 (fun _ -> f 8)
      @ List.init 8 (fun _ -> clique 3))

let gen workload seed dir =
  let st = Random.State.make [| seed; 2018 |] in
  let ops =
    match workload with
    | "cli-cold" ->
        gen_social dir seed;
        gen_cli_cold_ops st dir
    | "store-update" ->
        gen_social dir seed;
        gen_store_update_ops st dir
    | "wdeval-wide" -> gen_wdeval_ops st dir seed
    | w -> fail "unknown workload %s" w
  in
  (* a delta for the storage probe of workloads that never append *)
  if not (Sys.file_exists (dir // "delta_000.ttl")) then
    write_file (dir // "delta_000.ttl") (Turtle.to_string (Graph.of_triples (delta st)));
  (* the literal probe reads the social data, which wdeval-wide does not
     otherwise have *)
  if not (Sys.file_exists (dir // "social.ttl")) then gen_social dir seed;
  let pick = zipf people in
  let probe =
    List.init 8 (fun _ ->
        eval_op dir ~cls:"literal" ~data:"social.ttl" (literal_shape (pick st)))
  in
  write_ops dir (probe :: ops)

(* ------------------------------------------------------------------ *)
(* Expected answers                                                    *)
(* ------------------------------------------------------------------ *)

(* Verdicts of [Naive_eval] are exponential to compute, so they are
   cached in [cache] under the digest of the data, query and mapping. *)
let cached_verdict cache dir o graph q =
  let id =
    Digest.to_hex
      (Digest.string (read_file (dir // o.data) ^ "\x00" ^ o.query ^ "\x00" ^ o.arg))
  in
  let file = cache // ("verdict-" ^ id) in
  if Sys.file_exists file then read_file file = "1"
  else begin
    let forest = Wdpt.Pattern_forest.of_algebra q in
    let v = Wd_core.Naive_eval.check forest graph (parse_mapping o.arg) in
    (* renamed into place: a concurrent [expect] reads all of it or none *)
    let tmp = Filename.temp_file ~temp_dir:cache "verdict" ".tmp" in
    write_file tmp (if v then "1" else "0");
    Sys.rename tmp file;
    v
  end

(* Store states are replayed through every append up to the last listed
   op; answers are computed for the listed ops only. *)
let expect dir ids cache out_file =
  let ids = read_ids ids in
  let last = List.fold_left max (-1) ids in
  let wanted = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace wanted i ()) ids;
  let ops = List.filter (fun (i, _) -> i <= last) (read_ops dir) in
  let done_ = Hashtbl.create 64 in
  let out = Buffer.create 4096 in
  let graphs = Hashtbl.create 4 in
  let graph_of file =
    match Hashtbl.find_opt graphs file with
    | Some g -> g
    | None ->
        let g = parse_ttl (dir // file) in
        Hashtbl.replace graphs file g;
        g
  in
  (* store states: the base plus every delta appended so far *)
  let store = ref None in
  let store_graph () =
    match !store with
    | Some g -> g
    | None ->
        let g = graph_of "social.ttl" in
        store := Some g;
        g
  in
  List.iter
    (fun (i, o) ->
      if o.kind = "append" then begin
        store := Some (Graph.union (store_graph ()) (parse_ttl (dir // o.query)))
      end
      else if o.key <> "" && Hashtbl.mem wanted i && not (Hashtbl.mem done_ o.key)
      then begin
        Hashtbl.replace done_ o.key ();
        let graph =
          if o.data = "store.wds" then store_graph () else graph_of o.data
        in
        let q = parse_query (dir // o.query) in
        let rows, dg =
          if o.kind = "check" then
            ((if cached_verdict cache dir o graph q then 1 else 0), "-")
          else
            let sols =
              (* the algebra evaluator is term-level and independent of
                 the engine, but takes seconds on the full-scan queries
                 (6 s on deep_profile); those use the natural wdPF
                 semantics instead *)
              if o.cls = "point" || o.cls = "literal" then Sparql.Eval.eval q graph
              else Wdpt.Semantics.solutions (Wdpt.Pattern_forest.of_algebra q) graph
            in
            (Sparql.Mapping.Set.cardinal sols, digest sols)
        in
        Buffer.add_string out (Printf.sprintf "%s\t%d\t%s\n" o.key rows dg)
      end)
    ops;
  write_file out_file (Buffer.contents out)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; workload; seed; dir ] -> gen workload (int_of_string seed) dir
  | [ "expect"; dir; ids; cache; out ] -> expect dir ids cache out
  | _ ->
      prerr_endline
        "usage: wdbench gen WORKLOAD SEED DIR | expect DIR IDS CACHE OUT";
      exit 2
