(* Format v2 (lib/storage): delta segments. The load-bearing property
   is differential — a base store plus any chain of appended segments
   must be indistinguishable from a monolithic store recompiled from the
   same triple set: same answers, same counts, same planner statistics
   (compared through terms; the two id spaces differ). Plus chain
   validation, compact round-trips, corruption fuzzing of segment files
   and the refusal of retired shard manifests — damage always surfaces
   as [Wdsparql_error.Store_error]. *)

module E = Encoded.Encoded_graph
module Err = Wdsparql_error
module TS = Rdf.Triple.Set

let base_graph seed =
  Rdf.Generator.random_graph ~seed ~n:8 ~predicates:[ "q0"; "q1"; "q2" ] ~m:30

(* A disjoint-ish pool to draw additions from: overlapping subjects,
   one predicate the base never mentions, some fresh nodes — so appends
   grow the dictionary. *)
let add_pool seed =
  Rdf.Generator.random_graph ~seed ~n:11 ~predicates:[ "q1"; "q2"; "q3" ] ~m:24

let with_dir f =
  let dir = Filename.temp_file "wdsparql_delta" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let fault_of f =
  match f () with
  | _ -> None
  | exception Err.Error (Err.Store_error { fault; _ }) -> Some fault

let structured_only f =
  match f () with
  | _ -> true
  | exception Err.Error _ -> true
  | exception _ -> false

let pp_fault = Fmt.of_to_string (fun f -> Fmt.str "%a" Err.pp_store_fault f)
let fault_t = Alcotest.testable pp_fault ( = )

let solutions pattern graph =
  Wd_core.Engine.solutions (Wd_core.Engine.plan pattern) graph

(* The overlay store must agree with a monolithic compile of the same
   triple set on everything the planner and the evaluators consume.
   Statistics are compared through terms: an id of the monolithic store
   is translated to the overlay's id space via the dictionaries. *)
let check_equivalent ~ctx overlay mono =
  Alcotest.(check int) (ctx ^ ": cardinal") (E.cardinal mono)
    (E.cardinal overlay);
  let dm = E.dictionary mono and dv = E.dictionary overlay in
  Alcotest.(check int)
    (ctx ^ ": distinct subjects")
    (E.distinct_subjects mono)
    (E.distinct_subjects overlay);
  Alcotest.(check int)
    (ctx ^ ": distinct objects")
    (E.distinct_objects mono)
    (E.distinct_objects overlay);
  Alcotest.(check int)
    (ctx ^ ": distinct predicates")
    (E.distinct_predicates mono)
    (E.distinct_predicates overlay);
  for id = 0 to Rdf.Dictionary.size dm - 1 do
    let t = Rdf.Dictionary.term_of dm id in
    match Rdf.Dictionary.find dv t with
    | None ->
        Alcotest.failf "%s: term %s of the monolithic store is missing" ctx
          (Fmt.str "%a" Rdf.Term.pp t)
    | Some vid ->
        let a = E.predicate_stats mono id
        and b = E.predicate_stats overlay vid in
        Alcotest.(check (triple int int int))
          (ctx ^ ": predicate stats via terms")
          (a.E.triples, a.E.distinct_subjects, a.E.distinct_objects)
          (b.E.triples, b.E.distinct_subjects, b.E.distinct_objects);
        Alcotest.(check int)
          (ctx ^ ": match_count ?p")
          (E.match_count mono ~p:id ())
          (E.match_count overlay ~p:vid ())
  done;
  (* membership agrees triple for triple (and the overlay holds nothing
     extra — the cardinals already matched) *)
  for i = 0 to E.cardinal mono - 1 do
    let s, p, o = E.nth_spo mono i in
    let enc t = Option.get (Rdf.Dictionary.find dv (Rdf.Dictionary.term_of dm t)) in
    Alcotest.(check bool) (ctx ^ ": mem") true
      (E.mem overlay (enc s, enc p, enc o))
  done

let check_answers ~ctx ~seed handle mono_graph =
  for q = 1 to 3 do
    let pattern =
      Workload.Query_families.random_wd_pattern ~seed:((seed * 5) + q)
        ~triples:4 ~vars:4 ~preds:2 ~depth:2 ~union:1
    in
    let reference = solutions pattern mono_graph in
    let got = solutions pattern handle in
    if not (Sparql.Mapping.Set.equal reference got) then
      Alcotest.failf "%s: answers differ at seed %d: %s" ctx seed
        (Sparql.Printer.to_string pattern)
  done

(* ------------------------------------------------------------------ *)
(* Randomized append sequences vs monolithic recompile                 *)
(* ------------------------------------------------------------------ *)

let test_append_differential () =
  for seed = 1 to 8 do
    with_dir (fun dir ->
        let path = Filename.concat dir "s.wds" in
        let g0 = base_graph seed in
        Storage.save (E.of_graph g0) path;
        let current = ref (TS.of_list (Rdf.Graph.triples g0)) in
        for step = 1 to 3 do
          let pool =
            Rdf.Graph.triples (add_pool ((seed * 13) + step))
          in
          let adds =
            List.filteri (fun i _ -> i mod (step + 1) = 0) pool
          in
          let dels =
            TS.elements !current
            |> List.filteri (fun i _ -> i mod 4 = step mod 4)
            |> List.filter (fun t -> not (List.mem t adds))
          in
          (match Storage.append ~adds ~dels path with
          | Some r ->
              Alcotest.(check bool)
                "segment file exists" true
                (Sys.file_exists r.Storage.app_file)
          | None ->
              (* possible only if every add was present and every del
                 absent — not with these pools *)
              Alcotest.fail "append produced no segment");
          current :=
            TS.union (TS.diff !current (TS.of_list dels)) (TS.of_list adds);
          let mono_graph = Rdf.Graph.of_triples (TS.elements !current) in
          let mono = E.of_graph mono_graph in
          E.clear_cache ();
          let overlay = Storage.load ~verify:true path in
          let ctx = Printf.sprintf "seed %d step %d" seed step in
          check_equivalent ~ctx overlay mono;
          E.clear_cache ();
          check_answers ~ctx ~seed (Storage.load_graph path) mono_graph;
          (* the chain's identity changed with the append, and info
             agrees with the live view *)
          let i = Storage.info path in
          Alcotest.(check int) (ctx ^ ": info live triples")
            (TS.cardinal !current) i.Storage.triples;
          Alcotest.(check int) (ctx ^ ": info identity")
            (E.epoch overlay) i.Storage.identity;
          match i.Storage.chain with
          | Storage.Chained segs ->
              Alcotest.(check int) (ctx ^ ": segment count") step
                (List.length segs)
          | _ -> Alcotest.fail (ctx ^ ": expected a chained store")
        done)
  done

let test_append_normalization () =
  with_dir (fun dir ->
      let path = Filename.concat dir "s.wds" in
      let g = base_graph 3 in
      Storage.save (E.of_graph g) path;
      let present = Rdf.Graph.triples g in
      let absent = Rdf.Graph.triples (add_pool 99) in
      let absent = List.filter (fun t -> not (List.mem t present)) absent in
      (* adds already present + deletes of absent triples net to zero *)
      Alcotest.(check bool) "no-op append writes nothing" true
        (Storage.append ~adds:present ~dels:absent path = None);
      Alcotest.(check bool) "no segment file" false
        (Sys.file_exists (Storage.seg_path path 1));
      (* a triple added and deleted in the same call nets to present:
         if it already is, both drop *)
      Alcotest.(check bool) "add+del of a present triple is a no-op" true
        (Storage.append ~adds:[ List.hd present ] ~dels:[ List.hd present ]
           path
        = None);
      (* identity unchanged by the no-ops *)
      let i = Storage.info path in
      Alcotest.(check int) "stamp identity" i.Storage.stamp
        i.Storage.chain_stamp)

(* ------------------------------------------------------------------ *)
(* Compact round-trip                                                  *)
(* ------------------------------------------------------------------ *)

let test_compact_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "s.wds" in
      let g0 = base_graph 5 in
      Storage.save (E.of_graph g0) path;
      let adds = Rdf.Graph.triples (add_pool 50) in
      let dels =
        List.filteri (fun i _ -> i mod 3 = 0) (Rdf.Graph.triples g0)
        |> List.filter (fun t -> not (List.mem t adds))
      in
      ignore (Storage.append ~adds ~dels path);
      ignore
        (Storage.append
           ~dels:(List.filteri (fun i _ -> i mod 5 = 0) adds)
           path);
      E.clear_cache ();
      let before = Storage.load path in
      let live =
        List.init (E.cardinal before) (fun i ->
            Rdf.Dictionary.decode_triple (E.dictionary before)
              (E.nth_spo before i))
      in
      let r = Storage.compact path in
      Alcotest.(check int) "both segments folded" 2 r.Storage.folded;
      (* bit-identical to a fresh compile of the same triples: compare
         content stamps (which cover every payload byte) *)
      let fresh = Filename.concat dir "fresh.wds" in
      Storage.save (E.of_graph (Rdf.Graph.of_triples live)) fresh;
      let fi = Storage.info fresh and ci = Storage.info path in
      Alcotest.(check int) "compacted stamp = fresh compile stamp"
        fi.Storage.stamp ci.Storage.stamp;
      Alcotest.(check bool) "chain is single again"
        true (ci.Storage.chain = Storage.Single);
      Alcotest.(check bool) "segment files gone" false
        (Sys.file_exists (Storage.seg_path path 1));
      E.clear_cache ();
      let after = Storage.load ~verify:true path in
      Alcotest.(check int) "live count preserved" (List.length live)
        (E.cardinal after))

(* ------------------------------------------------------------------ *)
(* Chain validation                                                    *)
(* ------------------------------------------------------------------ *)

let chained_store dir =
  let path = Filename.concat dir "s.wds" in
  let g0 = base_graph 7 in
  Storage.save (E.of_graph g0) path;
  let pool = Rdf.Graph.triples (add_pool 70) in
  ignore (Storage.append ~adds:(List.filteri (fun i _ -> i mod 2 = 0) pool) path);
  ignore (Storage.append ~adds:(List.filteri (fun i _ -> i mod 2 = 1) pool) path);
  path

let test_chain_validation () =
  (* a gap in the numbering: .d1 removed while .d2 remains *)
  with_dir (fun dir ->
      let path = chained_store dir in
      Sys.remove (Storage.seg_path path 1);
      Alcotest.(check (option fault_t)) "gap in segment numbering"
        (Some Err.Corrupt)
        (fault_of (fun () -> Storage.load path)));
  (* the base was re-saved under the segments: parent stamp mismatch *)
  with_dir (fun dir ->
      let path = chained_store dir in
      Storage.save (E.of_graph (base_graph 8)) path;
      match fault_of (fun () -> Storage.load path) with
      | Some (Err.Delta_chain_broken _) -> ()
      | other ->
          Alcotest.failf "re-saved base: expected Delta_chain_broken, got %s"
            (match other with
            | None -> "success"
            | Some f -> Fmt.str "%a" pp_fault f));
  (* tampered parent-stamp bytes in the second segment *)
  with_dir (fun dir ->
      let path = chained_store dir in
      let seg = Storage.seg_path path 2 in
      let b = Bytes.of_string (read_file seg) in
      Bytes.set b 24 (Char.chr (Char.code (Bytes.get b 24) lxor 1));
      write_file seg (Bytes.to_string b);
      match fault_of (fun () -> Storage.load path) with
      | Some (Err.Delta_chain_broken _) -> ()
      | _ -> Alcotest.fail "tampered parent: expected Delta_chain_broken")

(* ------------------------------------------------------------------ *)
(* Segment corruption fuzzing                                          *)
(* ------------------------------------------------------------------ *)

let test_segment_fuzz () =
  with_dir (fun dir ->
      let path = chained_store dir in
      let seg = Storage.seg_path path 1 in
      let whole = read_file seg in
      let size = String.length whole in
      (* truncation at every layer: short-magic lengths must read as
         Truncated (the bytes prefix a known magic), never Bad_magic *)
      List.iter
        (fun len ->
          write_file seg (String.sub whole 0 len);
          Alcotest.(check (option fault_t))
            (Printf.sprintf "segment truncated to %d bytes" len)
            (Some Err.Truncated)
            (fault_of (fun () -> Storage.load path)))
        [ 0; 4; 7; 8; 100; 255 ];
      List.iter
        (fun len ->
          write_file seg (String.sub whole 0 len);
          Alcotest.(check bool)
            (Printf.sprintf "structured at %d bytes" len)
            true
            (structured_only (fun () -> Storage.load path)))
        [ 256; size / 2; size - 1 ];
      (* bit flips across the header: always the structured error (or a
         provably benign statistics change), never a crash *)
      for pos = 0 to min 255 (size - 1) do
        let b = Bytes.of_string whole in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
        write_file seg (Bytes.to_string b);
        Alcotest.(check bool)
          (Printf.sprintf "header flip at %d" pos)
          true
          (structured_only (fun () -> Storage.load path))
      done;
      (* payload flips under ~verify: caught by the segment stamp *)
      let step = max 1 ((size - 256) / 16) in
      let pos = ref 256 in
      while !pos < size do
        let b = Bytes.of_string whole in
        Bytes.set b !pos (Char.chr (Char.code (Bytes.get b !pos) lxor 0x04));
        write_file seg (Bytes.to_string b);
        Alcotest.(check bool)
          (Printf.sprintf "payload flip at %d" !pos)
          true
          (structured_only (fun () -> Storage.load ~verify:true path));
        pos := !pos + step
      done;
      write_file seg whole;
      ignore (Storage.load ~verify:true path))

(* ------------------------------------------------------------------ *)
(* Short-magic discrimination                                          *)
(* ------------------------------------------------------------------ *)

let test_short_magic () =
  let tmp = Filename.temp_file "wdsparql_magic" ".wds" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      (* [looks_like_store] must route every truncated store to the
         store reader (so [--data] reports [Truncated] as [--store]
         does), except the empty file, which is the empty Turtle
         graph. *)
      List.iter
        (fun (bytes, expected, sniffed, what) ->
          write_file tmp bytes;
          Alcotest.(check (option fault_t)) what (Some expected)
            (fault_of (fun () -> Storage.load tmp));
          Alcotest.(check bool) (what ^ ": sniffed as a store") sniffed
            (Storage.looks_like_store tmp))
        [
          ("", Err.Truncated, false, "empty file is truncated");
          ("WDS", Err.Truncated, true, "store-magic prefix is truncated");
          ("WDSTO", Err.Truncated, true, "longer store-magic prefix");
          ("WDSTORE", Err.Truncated, true, "store magic less one byte");
          ("WDSDE", Err.Truncated, true, "segment-magic prefix is truncated");
          ("WDSMANI", Err.Truncated, true, "manifest-magic prefix is truncated");
          ("XYZ", Err.Bad_magic, false, "foreign short file is bad magic");
          ("NOTASTORE!", Err.Bad_magic, false, "foreign long file is bad magic");
        ])

(* The shard-manifest layout is retired: a file carrying its magic is
   still sniffed as a store, and every reader refuses it with
   [Bad_magic] and a message that names the fix. *)
let test_retired_manifest () =
  let tmp = Filename.temp_file "wdsparql_manifest" ".man" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      write_file tmp ("WDSMANI1" ^ String.make 248 '\000');
      Alcotest.(check bool) "sniffed as a store" true
        (Storage.looks_like_store tmp);
      List.iter
        (fun (what, f) ->
          match f () with
          | () -> Alcotest.failf "%s accepted a shard manifest" what
          | exception
              Err.Error (Err.Store_error { fault = Err.Bad_magic; msg; _ }) ->
              Alcotest.(check bool)
                (what ^ ": message names the retirement")
                true
                (Astring.String.is_infix ~affix:"retired" msg)
          | exception Err.Error e ->
              Alcotest.failf "%s: expected Bad_magic, got %a" what Err.pp e)
        [
          ("load", fun () -> ignore (Storage.load tmp));
          ("load_graph", fun () -> ignore (Storage.load_graph tmp));
          ("info", fun () -> ignore (Storage.info tmp));
        ])

let () =
  Alcotest.run "delta"
    [
      ( "append",
        [
          Alcotest.test_case "randomized chains = monolithic recompile"
            `Quick test_append_differential;
          Alcotest.test_case "normalization drops no-op deltas" `Quick
            test_append_normalization;
        ] );
      ( "compact",
        [
          Alcotest.test_case "round-trips to the fresh-compile stamp" `Quick
            test_compact_roundtrip;
        ] );
      ( "chain",
        [
          Alcotest.test_case "gaps and broken parents rejected" `Quick
            test_chain_validation;
          Alcotest.test_case "segment corruption is structured" `Quick
            test_segment_fuzz;
        ] );
      ( "magic",
        [
          Alcotest.test_case "short files: Truncated vs Bad_magic" `Quick
            test_short_magic;
          Alcotest.test_case "retired shard manifests are refused" `Quick
            test_retired_manifest;
        ] );
    ]
