(* The compiled store: writer (plain buffered output, atomic rename) and
   mmap reader. This module owns every byte-layout and mapping concern;
   the rest of the codebase sees the result only through the closure
   views of [Rdf.Dictionary.of_view] and [Encoded.Encoded_graph.of_views]
   — a lint rule (tools/lint) keeps [Unix.map_file]/[Bigarray] confined
   here.

   Format v2 adds delta segments [<base>.d1, .d2, ...] around the v1
   base layout (which is unchanged byte for byte): append-only
   add/delete logs with their own dictionary-growth block, chained by
   parent stamp and merged at load through [Overlay] into the same flat
   views. *)

module E = Encoded.Encoded_graph
module Err = Wdsparql_error
module A1 = Bigarray.Array1

let magic = "WDSTORE1"
let delta_magic = "WDSDELT1"

(* The magic of the retired shard-manifest layout: still recognised, so
   an old manifest is refused with a message naming the fix instead of
   a bare "not a compiled store". *)
let manifest_magic = "WDSMANI1"
let format_version = 2
let header_size = 256

(* Detects reading a store on a machine of the other endianness (the
   words would come back byte-swapped). Fits in 57 bits, so it is a
   valid OCaml int everywhere we run. *)
let byte_order_mark = 0x0123456789ABCDEF

(* Header word offsets (bytes). The section table holds (offset, length)
   pairs for the seven sections in [section_count] order: dict-offsets,
   term-sort, dict-blob, spo, pos, osp, pstats. *)
let off_version = 8
let off_bom = 16
let off_triples = 24
let off_terms = 32
let off_stamp = 40
let off_preds = 48
let off_distinct_s = 56
let off_distinct_o = 64
let off_distinct_p = 72
let off_table = 80
let section_count = 7

let section_names =
  [|
    "dict-offsets"; "term-sort"; "dict-blob"; "spo-index"; "pos-index";
    "osp-index"; "pred-stats";
  |]

(* Segment header word offsets. Four sections: new-dict-offsets,
   new-dict-blob, adds, dels. *)
let soff_parent = 24
let soff_stamp = 32
let soff_adds = 40
let soff_dels = 48
let soff_new_terms = 56
let soff_parent_terms = 64
let soff_table = 72
let seg_section_count = 4

let fail path fault msg = Err.fail (Err.Store_error { path; fault; msg })

(* ------------------------------------------------------------------ *)
(* Content stamp: FNV-1a folded into 62 bits so the stamp is a
   non-negative OCaml int on every 64-bit platform (and so [-1 - stamp]
   is always a valid negative identity).                               *)
(* ------------------------------------------------------------------ *)

let fnv_basis = 0x3bf29ce484222325
let fnv_prime = 0x100000001b3
let fnv_byte h b = ((h lxor b) * fnv_prime) land max_int

let fnv_string h s =
  let h = ref h in
  String.iter (fun c -> h := fnv_byte !h (Char.code c)) s;
  !h

let identity_of_stamp stamp = -1 - stamp

(* The chain stamp after applying one segment: fold the parent chain
   stamp and the segment's payload stamp. Associating left over the
   chain gives every (base, segment list) prefix a distinct identity. *)
let fold_stamp chain seg =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int chain);
  Bytes.set_int64_le b 8 (Int64.of_int seg);
  fnv_string fnv_basis (Bytes.to_string b)

(* ------------------------------------------------------------------ *)
(* Term serialization: a one-byte tag and the term's text. Both term
   constructors reject the empty string, so entries are >= 2 bytes and
   the byte comparison used by [term-sort] is total and unambiguous
   (tags differ before texts are compared).                            *)
(* ------------------------------------------------------------------ *)

let serialize_term = function
  | Rdf.Term.Iri i -> "I" ^ Rdf.Iri.to_string i
  | Rdf.Term.Var v -> "V" ^ Rdf.Variable.to_string v

let deserialize_term path s =
  let corrupt msg = fail path Err.Corrupt msg in
  if String.length s < 2 then corrupt "dictionary entry shorter than tag + text"
  else
    let text = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'I' -> (
        try Rdf.Term.iri text
        with Invalid_argument _ -> corrupt "invalid IRI in dictionary blob")
    | 'V' -> (
        try Rdf.Term.var text
        with Invalid_argument _ ->
          corrupt "invalid variable name in dictionary blob")
    | _ -> corrupt "unknown term tag in dictionary blob"

(* The three permutation keys (duplicated from Encoded_graph, which
   keeps them private — three one-liners are cheaper than widening that
   API). *)
let rot_spo (s, p, o) = (s, p, o)
let rot_pos (s, p, o) = (p, o, s)
let rot_osp (s, p, o) = (o, s, p)

(* ------------------------------------------------------------------ *)
(* Writer plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let add_word buf v = Buffer.add_int64_le buf (Int64.of_int v)

(* Concatenate section buffers 16-byte aligned after the header,
   returning the payload and the (offset, length) table. *)
let build_sections bufs =
  let payload = Buffer.create 4096 in
  let table =
    Array.map
      (fun buf ->
        let pos = header_size + Buffer.length payload in
        let pad = (16 - (pos mod 16)) mod 16 in
        Buffer.add_string payload (String.make pad '\000');
        let entry = (pos + pad, Buffer.length buf) in
        Buffer.add_buffer payload buf;
        entry)
      bufs
  in
  (payload, table)

(* Persist the enclosing directory entry (after a rename). Best-effort:
   some filesystems refuse directory opens or fsync, and the file is
   already fully written. *)
let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dir ->
      (try Unix.fsync dir with Unix.Unix_error _ -> ());
      Unix.close dir

let atomic_write path ~header ~payload =
  let io_fail msg = Err.fail (Err.Io_error { path; msg }) in
  let tmp = path ^ ".tmp" in
  let oc = try open_out_bin tmp with Sys_error msg -> io_fail msg in
  (try
     Buffer.output_buffer oc header;
     Buffer.output_buffer oc payload;
     flush oc;
     (* The temp file's bytes must reach the disk before the rename
        publishes it, or a crash right after could leave a truncated
        store at the final path — the rename is atomic against readers
        only; durability needs the fsync. *)
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     (match e with
     | Sys_error msg -> io_fail msg
     | Unix.Unix_error (err, _, _) -> io_fail (Unix.error_message err)
     | e -> raise e));
  (try Sys.rename tmp path with Sys_error msg -> io_fail msg);
  fsync_dir path

let save enc path =
  let n = E.cardinal enc in
  let dict = E.dictionary enc in
  let n_terms = Rdf.Dictionary.size dict in
  (* Dictionary sections: blob + offsets in id order, and the ids sorted
     by serialized bytes for the reader's reverse lookup. *)
  let ser =
    Array.init n_terms (fun id -> serialize_term (Rdf.Dictionary.term_of dict id))
  in
  let order = Array.init n_terms Fun.id in
  Array.sort (fun a b -> String.compare ser.(a) ser.(b)) order;
  let offsets = Buffer.create ((n_terms + 1) * 8) in
  let blob = Buffer.create 1024 in
  Array.iter
    (fun s ->
      add_word offsets (Buffer.length blob);
      Buffer.add_string blob s)
    ser;
  add_word offsets (Buffer.length blob);
  let term_sort = Buffer.create (n_terms * 8) in
  Array.iter (fun id -> add_word term_sort id) order;
  (* Index sections: the raw tuples of each permutation, in its order. *)
  let index_section nth =
    let buf = Buffer.create (n * 24) in
    for i = 0 to n - 1 do
      let s, p, o = nth enc i in
      add_word buf s;
      add_word buf p;
      add_word buf o
    done;
    buf
  in
  let spo = index_section E.nth_spo
  and pos = index_section E.nth_pos
  and osp = index_section E.nth_osp in
  (* Statistics rows: one per distinct predicate, ascending pid (the POS
     permutation enumerates predicates in order). Computed now — loads
     answer the planner from these without scanning the mapping. *)
  let preds = ref [] in
  let last = ref min_int in
  for i = 0 to n - 1 do
    let _, p, _ = E.nth_pos enc i in
    if p <> !last then begin
      preds := p :: !preds;
      last := p
    end
  done;
  let preds = List.rev !preds in
  let pstats = Buffer.create 64 in
  List.iter
    (fun p ->
      let s = E.predicate_stats enc p in
      add_word pstats p;
      add_word pstats s.E.triples;
      add_word pstats s.E.distinct_subjects;
      add_word pstats s.E.distinct_objects)
    preds;
  let payload, table =
    build_sections [| offsets; term_sort; blob; spo; pos; osp; pstats |]
  in
  let stamp = fnv_string fnv_basis (Buffer.contents payload) in
  let header = Buffer.create header_size in
  Buffer.add_string header magic;
  add_word header format_version;
  add_word header byte_order_mark;
  add_word header n;
  add_word header n_terms;
  add_word header stamp;
  add_word header (List.length preds);
  add_word header (E.distinct_subjects enc);
  add_word header (E.distinct_objects enc);
  add_word header (E.distinct_predicates enc);
  Array.iter
    (fun (off, len) ->
      add_word header off;
      add_word header len)
    table;
  Buffer.add_string header
    (String.make (header_size - Buffer.length header) '\000');
  atomic_write path ~header ~payload

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

let prefixes_a_magic have =
  List.exists
    (fun m ->
      String.length have <= String.length m
      && String.equal (String.sub m 0 (String.length have)) have)
    [ magic; delta_magic; manifest_magic ]

(* A file shorter than the magic itself is [Truncated] only when the
   bytes present are a prefix of one of the family magics — a real
   store cut off mid-write; anything else was never a store at all
   ([Bad_magic]). An empty file counts as truncated. *)
let read_magic path ic ~size ~expected =
  let mlen = String.length expected in
  if size < mlen then begin
    if prefixes_a_magic (really_input_string ic size) then
      fail path Err.Truncated "file shorter than the store magic"
    else fail path Err.Bad_magic "not a compiled store"
  end
  else
    let found = really_input_string ic mlen in
    if String.equal found manifest_magic then
      fail path Err.Bad_magic
        "shard manifests were retired; load the store the manifest was \
         made from instead"
    else if not (String.equal found expected) then
      fail path Err.Bad_magic "not a compiled store"

let check_version_bom path header =
  let word off = Int64.to_int (String.get_int64_le header off) in
  let version = word off_version in
  if version <> format_version then
    fail path
      (Err.Version_mismatch { found = version; expected = format_version })
      "";
  if word off_bom <> byte_order_mark then
    fail path Err.Corrupt "byte-order mark mismatch (endianness or corruption)"

(* Bounds, expected lengths (a negative expectation means free-form) and
   pairwise disjointness of a section table: in-bounds but overlapping
   offsets would alias dictionary/index bytes and yield wrong answers
   without any out-of-bounds access to catch it. *)
let validate_sections path ~size ~table ~expected =
  Array.iteri
    (fun k (off, len) ->
      if off < header_size || len < 0 || len > size || off > size - len then
        fail path Err.Truncated
          (Printf.sprintf "section %d extends past end-of-file" k);
      if expected.(k) >= 0 && len <> expected.(k) then
        fail path Err.Corrupt
          (Printf.sprintf "section %d length disagrees with header counts" k))
    table;
  let order = Array.init (Array.length table) Fun.id in
  Array.sort (fun a b -> compare (fst table.(a)) (fst table.(b))) order;
  let last_end = ref header_size in
  Array.iter
    (fun k ->
      let off, len = table.(k) in
      if len > 0 then begin
        if off < !last_end then
          fail path Err.Corrupt
            (Printf.sprintf "section %d overlaps another section" k);
        last_end := off + len
      end)
    order

type header = {
  h_triples : int;
  h_terms : int;
  h_stamp : int;
  h_preds : int;
  h_distinct_s : int;
  h_distinct_o : int;
  h_distinct_p : int;
  h_table : (int * int) array;
  h_file_bytes : int;
}

(* Read and validate the fixed header through ordinary channel I/O (the
   mappings come later, and only for a header that checked out). *)
let read_header path ic =
  let size = in_channel_length ic in
  read_magic path ic ~size ~expected:magic;
  if size < header_size then fail path Err.Truncated "incomplete header";
  let rest = really_input_string ic (header_size - String.length magic) in
  let header = magic ^ rest in
  check_version_bom path header;
  let word off = Int64.to_int (String.get_int64_le header off) in
  let h =
    {
      h_triples = word off_triples;
      h_terms = word off_terms;
      h_stamp = word off_stamp;
      h_preds = word off_preds;
      h_distinct_s = word off_distinct_s;
      h_distinct_o = word off_distinct_o;
      h_distinct_p = word off_distinct_p;
      h_table =
        Array.init section_count (fun k ->
            (word (off_table + (16 * k)), word (off_table + (16 * k) + 8)));
      h_file_bytes = size;
    }
  in
  if h.h_triples < 0 || h.h_terms < 0 || h.h_preds < 0 || h.h_stamp < 0 then
    fail path Err.Corrupt "negative count in header";
  (* counts must physically fit in the file BEFORE the expected-length
     multiplications below — a flipped high bit would wrap them mod the
     int range and alias a valid length *)
  if
    h.h_triples > size / 24 || h.h_terms > size / 8 || h.h_preds > size / 32
  then fail path Err.Truncated "file too short for the header counts";
  if
    h.h_distinct_s < 0
    || h.h_distinct_s > h.h_terms
    || h.h_distinct_o < 0
    || h.h_distinct_o > h.h_terms
    || h.h_distinct_p < 0
    || h.h_distinct_p > h.h_terms
  then fail path Err.Corrupt "distinct-count statistics out of range";
  validate_sections path ~size ~table:h.h_table
    ~expected:
      [|
        8 * (h.h_terms + 1);
        8 * h.h_terms;
        -1 (* blob: free-form length *);
        24 * h.h_triples;
        24 * h.h_triples;
        24 * h.h_triples;
        32 * h.h_preds;
      |];
  h

let map_section path fd kind ~pos ~bytes ~elt_bytes =
  if bytes = 0 then None
  else
    try
      let g =
        Unix.map_file fd ~pos:(Int64.of_int pos) kind Bigarray.c_layout false
          [| bytes / elt_bytes |]
      in
      Some (Bigarray.array1_of_genarray g)
    with Unix.Unix_error (e, _, _) ->
      Err.fail
        (Err.Io_error
           { path; msg = "mmap failed: " ^ Unix.error_message e })

let verify_payload path fd ~file_bytes ~expect =
  let payload_bytes = file_bytes - header_size in
  let stamp =
    match
      map_section path fd Bigarray.char ~pos:header_size ~bytes:payload_bytes
        ~elt_bytes:1
    with
    | None -> fnv_basis
    | Some bytes ->
        let hash = ref fnv_basis in
        for i = 0 to payload_bytes - 1 do
          hash := fnv_byte !hash (Char.code (A1.get bytes i))
        done;
        !hash
  in
  if stamp <> expect then
    fail path Err.Checksum_mismatch
      (Printf.sprintf "payload hashes to %#x, header says %#x" stamp expect)

let verify_stamp path fd h =
  verify_payload path fd ~file_bytes:h.h_file_bytes ~expect:h.h_stamp

let with_store path f =
  let ic =
    try open_in_bin path
    with Sys_error msg -> Err.fail (Err.Io_error { path; msg })
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let h = read_header path ic in
      (* The mappings outlive the descriptor: closing the channel after
         [f] returns does not unmap anything. *)
      f h (Unix.descr_of_in_channel ic))

(* The dictionary view over the mapped offsets / sort / blob sections.
   Offsets are validated at each decode (not eagerly: an O(n_terms)
   scan would defeat the O(pages touched) load), so a corrupt blob
   surfaces as [Store_error Corrupt] at first touch, never a crash —
   every mapping access below is bounds-checked by Bigarray. *)
let dict_view path ~offsets ~term_sort ~blob ~blob_len ~n_terms =
  let entry id =
    let lo = A1.get offsets id and hi = A1.get offsets (id + 1) in
    if lo < 0 || hi < lo || hi > blob_len then
      fail path Err.Corrupt
        (Printf.sprintf "dictionary offsets for id %d out of range" id);
    (lo, hi - lo)
  in
  let blob_get =
    match blob with
    | Some b -> fun i -> A1.get b i
    | None ->
        fun _ -> fail path Err.Corrupt "term refers into an empty blob"
  in
  let view_term id =
    let lo, len = entry id in
    deserialize_term path (String.init len (fun i -> blob_get (lo + i)))
  in
  (* Compare term [id]'s bytes against [probe] without materialising the
     entry. *)
  let compare_entry id probe =
    let lo, len = entry id in
    let plen = String.length probe in
    let rec go i =
      if i = len || i = plen then compare len plen
      else
        let c = Char.compare (blob_get (lo + i)) probe.[i] in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let sorted_id rank =
    match term_sort with
    | None -> fail path Err.Corrupt "term-sort section missing"
    | Some ts ->
        let id = A1.get ts rank in
        if id < 0 || id >= n_terms then
          fail path Err.Corrupt "term-sort id out of range"
        else id
  in
  let view_find term =
    let probe = serialize_term term in
    let lo = ref 0 and hi = ref n_terms in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if compare_entry (sorted_id mid) probe < 0 then lo := mid + 1
      else hi := mid
    done;
    if !lo >= n_terms then None
    else
      let id = sorted_id !lo in
      if compare_entry id probe = 0 then Some id else None
  in
  { Rdf.Dictionary.view_size = n_terms; view_term; view_find }

let triple_view path section n =
  match section with
  | None ->
      {
        E.fn = 0;
        fget = (fun _ -> fail path Err.Corrupt "probe into an empty index");
      }
  | Some a ->
      {
        E.fn = n;
        fget =
          (fun i -> (A1.get a (3 * i), A1.get a ((3 * i) + 1), A1.get a ((3 * i) + 2)));
      }

(* Per-predicate rows, pid-ascending; checked eagerly (rows = distinct
   predicates, a tiny section) so binary search is sound. A predicate
   with no row genuinely has no triples: the writer emits a row for
   every distinct predicate. *)
let stats_seed path ~pstats ~h =
  let zero = { E.triples = 0; distinct_subjects = 0; distinct_objects = 0 } in
  let row rank =
    match pstats with
    | None -> fail path Err.Corrupt "statistics row missing"
    | Some a ->
        ( A1.get a (4 * rank),
          {
            E.triples = A1.get a ((4 * rank) + 1);
            distinct_subjects = A1.get a ((4 * rank) + 2);
            distinct_objects = A1.get a ((4 * rank) + 3);
          } )
  in
  for rank = 0 to h.h_preds - 1 do
    let pid, s = row rank in
    if
      pid < 0
      || s.E.triples < 0
      || s.E.distinct_subjects < 0
      || s.E.distinct_objects < 0
      || (rank > 0 && pid <= fst (row (rank - 1)))
    then fail path Err.Corrupt "statistics rows unsorted or out of range"
  done;
  let seed_predicate p =
    let lo = ref 0 and hi = ref h.h_preds in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst (row mid) < p then lo := mid + 1 else hi := mid
    done;
    if !lo < h.h_preds then
      let pid, s = row !lo in
      Some (if pid = p then s else zero)
    else Some zero
  in
  {
    E.seed_subjects = Some h.h_distinct_s;
    seed_objects = Some h.h_distinct_o;
    seed_predicates = Some h.h_distinct_p;
    seed_predicate;
  }

(* ------------------------------------------------------------------ *)
(* Delta segments                                                      *)
(* ------------------------------------------------------------------ *)

let seg_path base k = Printf.sprintf "%s.d%d" base k

(* The segment chain of a base store: <base>.d1, .d2, ... up to the
   first missing index. A hole in the numbering would silently drop the
   chain's tail, so probe one past the first gap and fail loudly. *)
let discover_segments path =
  let rec go acc k =
    let p = seg_path path k in
    if Sys.file_exists p then go (p :: acc) (k + 1)
    else begin
      if Sys.file_exists (seg_path path (k + 1)) then
        fail
          (seg_path path (k + 1))
          Err.Corrupt
          (Printf.sprintf "segment chain has a gap: %s is missing"
             (Filename.basename (seg_path path k)));
      List.rev acc
    end
  in
  go [] 1

type seg_header = {
  sg_parent : int;
  sg_stamp : int;
  sg_adds : int;
  sg_dels : int;
  sg_new_terms : int;
  sg_parent_terms : int;
  sg_table : (int * int) array;
  sg_file_bytes : int;
}

type seg_data = {
  sd_path : string;
  sd_header : seg_header;
  sd_new_terms : string array;  (* serialized, ids from sg_parent_terms *)
  sd_adds : (int * int * int) array;  (* sorted by (s,p,o) *)
  sd_dels : (int * int * int) array;
}

(* Segments are O(delta): read them eagerly through the channel, no
   mapping needed. *)
let read_segment ?(verify = false) path =
  let ic =
    try open_in_bin path
    with Sys_error msg -> Err.fail (Err.Io_error { path; msg })
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let size = in_channel_length ic in
      read_magic path ic ~size ~expected:delta_magic;
      if size < header_size then
        fail path Err.Truncated "incomplete segment header";
      let rest = really_input_string ic (header_size - String.length delta_magic) in
      let header = delta_magic ^ rest in
      check_version_bom path header;
      let word off = Int64.to_int (String.get_int64_le header off) in
      let sg =
        {
          sg_parent = word soff_parent;
          sg_stamp = word soff_stamp;
          sg_adds = word soff_adds;
          sg_dels = word soff_dels;
          sg_new_terms = word soff_new_terms;
          sg_parent_terms = word soff_parent_terms;
          sg_table =
            Array.init seg_section_count (fun k ->
                (word (soff_table + (16 * k)), word (soff_table + (16 * k) + 8)));
          sg_file_bytes = size;
        }
      in
      if
        sg.sg_parent < 0 || sg.sg_stamp < 0 || sg.sg_adds < 0 || sg.sg_dels < 0
        || sg.sg_new_terms < 0 || sg.sg_parent_terms < 0
      then fail path Err.Corrupt "negative count in segment header";
      (* fit check before the length multiplications (overflow aliasing) *)
      if
        sg.sg_adds > size / 24 || sg.sg_dels > size / 24
        || sg.sg_new_terms > size / 8
      then fail path Err.Truncated "file too short for the segment counts";
      validate_sections path ~size ~table:sg.sg_table
        ~expected:
          [|
            8 * (sg.sg_new_terms + 1);
            -1 (* blob *);
            24 * sg.sg_adds;
            24 * sg.sg_dels;
          |];
      if verify then begin
        seek_in ic header_size;
        let payload = really_input_string ic (size - header_size) in
        let stamp = fnv_string fnv_basis payload in
        if stamp <> sg.sg_stamp then
          fail path Err.Checksum_mismatch
            (Printf.sprintf "payload hashes to %#x, header says %#x" stamp
               sg.sg_stamp)
      end;
      let section k =
        let off, len = sg.sg_table.(k) in
        seek_in ic off;
        really_input_string ic len
      in
      let words s =
        Array.init (String.length s / 8) (fun i ->
            Int64.to_int (String.get_int64_le s (8 * i)))
      in
      let offsets = words (section 0) in
      let blob = section 1 in
      let new_terms =
        Array.init sg.sg_new_terms (fun i ->
            let lo = offsets.(i) and hi = offsets.(i + 1) in
            if lo < 0 || hi < lo || hi > String.length blob then
              fail path Err.Corrupt "segment dictionary offsets out of range";
            String.sub blob lo (hi - lo))
      in
      let triples s n =
        Array.init n (fun i ->
            let w j = Int64.to_int (String.get_int64_le s ((24 * i) + (8 * j))) in
            (w 0, w 1, w 2))
      in
      {
        sd_path = path;
        sd_header = sg;
        sd_new_terms = new_terms;
        sd_adds = triples (section 2) sg.sg_adds;
        sd_dels = triples (section 3) sg.sg_dels;
      })

let write_segment path ~parent_stamp ~parent_terms ~new_terms ~adds ~dels =
  let offsets = Buffer.create ((Array.length new_terms + 1) * 8) in
  let blob = Buffer.create 256 in
  Array.iter
    (fun s ->
      add_word offsets (Buffer.length blob);
      Buffer.add_string blob s)
    new_terms;
  add_word offsets (Buffer.length blob);
  let triples_buf arr =
    let buf = Buffer.create (Array.length arr * 24) in
    Array.iter
      (fun (s, p, o) ->
        add_word buf s;
        add_word buf p;
        add_word buf o)
      arr;
    buf
  in
  let payload, table =
    build_sections [| offsets; blob; triples_buf adds; triples_buf dels |]
  in
  let stamp = fnv_string fnv_basis (Buffer.contents payload) in
  let header = Buffer.create header_size in
  Buffer.add_string header delta_magic;
  add_word header format_version;
  add_word header byte_order_mark;
  add_word header parent_stamp;
  add_word header stamp;
  add_word header (Array.length adds);
  add_word header (Array.length dels);
  add_word header (Array.length new_terms);
  add_word header parent_terms;
  Array.iter
    (fun (off, len) ->
      add_word header off;
      add_word header len)
    table;
  Buffer.add_string header
    (String.make (header_size - Buffer.length header) '\000');
  atomic_write path ~header ~payload;
  stamp

(* Chain validation: each segment must name the running chain stamp as
   its parent and agree on where the dictionary stood. Returns the final
   (chain stamp, total terms). *)
let fold_chain h segs =
  List.fold_left
    (fun (stamp, terms) sd ->
      let sg = sd.sd_header in
      if sg.sg_parent <> stamp then
        fail sd.sd_path
          (Err.Delta_chain_broken
             { expected_parent = stamp; found_parent = sg.sg_parent })
          "";
      if sg.sg_parent_terms <> terms then
        fail sd.sd_path Err.Corrupt
          "segment dictionary base disagrees with the chain";
      (fold_stamp stamp sg.sg_stamp, terms + sg.sg_new_terms))
    (h.h_stamp, h.h_terms) segs

(* ------------------------------------------------------------------ *)
(* Loading: base store (possibly under a segment chain)                *)
(* ------------------------------------------------------------------ *)

let load ?(verify = false) path =
  let segs = List.map (read_segment ~verify) (discover_segments path) in
  with_store path (fun h fd ->
      if verify then verify_stamp path fd h;
      let sec k = h.h_table.(k) in
      let map_ints k =
        let pos, bytes = sec k in
        map_section path fd Bigarray.int ~pos ~bytes ~elt_bytes:8
      in
      let offsets =
        match map_ints 0 with
        | Some a -> a
        | None -> fail path Err.Corrupt "dictionary offsets section empty"
      in
      let term_sort = map_ints 1 in
      let blob =
        let pos, bytes = sec 2 in
        map_section path fd Bigarray.char ~pos ~bytes ~elt_bytes:1
      in
      let base_dict_view =
        dict_view path ~offsets ~term_sort ~blob ~blob_len:(snd (sec 2))
          ~n_terms:h.h_terms
      in
      let base_spo = triple_view path (map_ints 3) h.h_triples
      and base_pos = triple_view path (map_ints 4) h.h_triples
      and base_osp = triple_view path (map_ints 5) h.h_triples in
      let base_seed = stats_seed path ~pstats:(map_ints 6) ~h in
      match segs with
      | [] ->
          E.of_views
            ~identity:(identity_of_stamp h.h_stamp)
            ~dict:(Rdf.Dictionary.of_view base_dict_view)
            ~spo:base_spo ~pos:base_pos ~osp:base_osp ~stats:base_seed ()
      | segs ->
          let chain_stamp, total_terms = fold_chain h segs in
          (* Composed dictionary: base ids unchanged, segment growth
             appended above them. A find that misses the base scans the
             segment entries linearly — O(delta), and memoized by the
             Dictionary wrapper. *)
          let extra = Array.concat (List.map (fun sd -> sd.sd_new_terms) segs) in
          let view_term id =
            if id < h.h_terms then base_dict_view.Rdf.Dictionary.view_term id
            else if id - h.h_terms < Array.length extra then
              deserialize_term path extra.(id - h.h_terms)
            else fail path Err.Corrupt "term id beyond the segment dictionary"
          in
          let view_find term =
            match base_dict_view.Rdf.Dictionary.view_find term with
            | Some id -> Some id
            | None ->
                let probe = serialize_term term in
                let found = ref None in
                Array.iteri
                  (fun i s ->
                    if !found = None && String.equal s probe then
                      found := Some (h.h_terms + i))
                  extra;
                !found
          in
          let dict =
            Rdf.Dictionary.of_view
              { Rdf.Dictionary.view_size = total_terms; view_term; view_find }
          in
          let adds, dels =
            Overlay.compose
              ~base_mem:(fun t -> Overlay.view_mem base_spo rot_spo t)
              ~segments:(List.map (fun sd -> (sd.sd_adds, sd.sd_dels)) segs)
              ()
          in
          let spo = Overlay.merge ~base:base_spo ~rot:rot_spo ~adds ~dels ()
          and pos = Overlay.merge ~base:base_pos ~rot:rot_pos ~adds ~dels ()
          and osp = Overlay.merge ~base:base_osp ~rot:rot_osp ~adds ~dels () in
          (* Stats under the overlay: predicates the delta never touched
             keep their exact base rows; touched predicates (and the
             global distinct counts) fall back to the encoded layer's
             exact scans over the merged views, so the planner's figures
             match a monolithic recompile bit for bit. *)
          let stats =
            if Array.length adds = 0 && Array.length dels = 0 then base_seed
            else begin
              let touched = Hashtbl.create 16 in
              Array.iter (fun (_, p, _) -> Hashtbl.replace touched p ()) adds;
              Array.iter (fun (_, p, _) -> Hashtbl.replace touched p ()) dels;
              {
                E.seed_subjects = None;
                seed_objects = None;
                seed_predicates = None;
                seed_predicate =
                  (fun p ->
                    if Hashtbl.mem touched p then None
                    else base_seed.E.seed_predicate p);
              }
            end
          in
          E.of_views
            ~identity:(identity_of_stamp chain_stamp)
            ~dict ~spo ~pos ~osp ~stats ())

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)


let load_graph ?verify path =
  let enc = load ?verify path in
  E.register enc;
  (* The deferred term-level decode: only forced by consumers outside
     the encoded path (naive evaluation, printing); runs on the same
     dictionary, so decoded terms are shared with the store's memo. *)
  Rdf.Graph.deferred ~epoch:(E.epoch enc) (fun () ->
      let dict = E.dictionary enc in
      let acc = ref [] in
      for i = E.cardinal enc - 1 downto 0 do
        acc := Rdf.Dictionary.decode_triple dict (E.nth_spo enc i) :: !acc
      done;
      Rdf.Index.of_triples !acc)

(* ------------------------------------------------------------------ *)
(* Append / compact                                                    *)
(* ------------------------------------------------------------------ *)

type append_result = {
  app_file : string;
  app_adds : int;
  app_dels : int;
  app_new_terms : int;
  app_chain_stamp : int;
}

let append ?(adds = []) ?(dels = []) path =
  let n_existing = List.length (discover_segments path) in
  let enc = load path in
  let dict = E.dictionary enc in
  let parent_terms = Rdf.Dictionary.size dict in
  let module TS = Rdf.Triple.Set in
  let add_set = TS.of_list adds and del_set = TS.of_list dels in
  let encode_opt tr =
    match
      ( Rdf.Dictionary.find dict tr.Rdf.Triple.s,
        Rdf.Dictionary.find dict tr.Rdf.Triple.p,
        Rdf.Dictionary.find dict tr.Rdf.Triple.o )
    with
    | Some s, Some p, Some o -> Some (s, p, o)
    | _ -> None
  in
  let present tr =
    match encode_opt tr with Some t -> E.mem enc t | None -> false
  in
  (* Normalize against the live overlay: adds already present and
     deletions of absent triples drop out (a triple both added and
     deleted here nets to "present", so if it already is, both drop).
     The invariants this buys — segment adds absent below them, dels
     present, disjoint — keep the chain's live count exactly
     base + Σ(adds − dels) and let the merge kernel skip slack
     handling. *)
  let dels_n =
    TS.filter (fun t -> present t && not (TS.mem t add_set)) del_set
  in
  let adds_n = TS.filter (fun t -> not (present t)) add_set in
  if TS.is_empty adds_n && TS.is_empty dels_n then None
  else begin
    (* Interning in canonical Triple.Set order keeps new-term ids — and
       with them the segment bytes and stamp — deterministic. *)
    let add_ids =
      Array.of_list
        (List.map (Rdf.Dictionary.encode_triple dict) (TS.elements adds_n))
    in
    let del_ids =
      Array.of_list
        (List.map (fun t -> Option.get (encode_opt t)) (TS.elements dels_n))
    in
    Array.sort compare add_ids;
    Array.sort compare del_ids;
    let new_total = Rdf.Dictionary.size dict in
    let new_terms =
      Array.init (new_total - parent_terms) (fun i ->
          serialize_term (Rdf.Dictionary.term_of dict (parent_terms + i)))
    in
    let parent_stamp = -1 - E.epoch enc in
    let file = seg_path path (n_existing + 1) in
    let seg_stamp =
      write_segment file ~parent_stamp ~parent_terms ~new_terms ~adds:add_ids
        ~dels:del_ids
    in
    Some
      {
        app_file = file;
        app_adds = Array.length add_ids;
        app_dels = Array.length del_ids;
        app_new_terms = Array.length new_terms;
        app_chain_stamp = fold_stamp parent_stamp seg_stamp;
      }
  end

type compact_result = { folded : int; compact_stamp : int }

let compact path =
  let segs = discover_segments path in
  let enc = load path in
  let dict = E.dictionary enc in
  let acc = ref [] in
  for i = E.cardinal enc - 1 downto 0 do
    acc := Rdf.Dictionary.decode_triple dict (E.nth_spo enc i) :: !acc
  done;
  (* Term-level rebuild: encoding the decoded triple set from scratch
     assigns the same canonical ids a fresh compile of the same graph
     would, so the compacted stamp equals the monolithic one. Crash
     safety: the new base lands first (atomic rename); segments are
     unlinked after, and a crash in the window leaves segments whose
     parent stamp no longer matches — the next load fails loudly with
     [Delta_chain_broken] instead of replaying stale deltas. *)
  let fresh = E.of_graph (Rdf.Graph.of_triples !acc) in
  save fresh path;
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) segs;
  fsync_dir path;
  with_store path (fun h _ ->
      { folded = List.length segs; compact_stamp = h.h_stamp })

(* ------------------------------------------------------------------ *)
(* Info                                                                *)
(* ------------------------------------------------------------------ *)

type section_info = { sec_name : string; sec_bytes : int }

type segment_info = {
  seg_file : string;
  seg_adds : int;
  seg_dels : int;
  seg_new_terms : int;
  seg_stamp : int;
  seg_chain_stamp : int;
  seg_bytes : int;
}

(* [member_info] and [Sharded] describe the retired shard-manifest
   layout. Nothing constructs them; they stay only while the traced
   benchmark helper (perfbench/_helper/wdtrace.ml) matches [Sharded]. *)
type member_info = {
  mem_file : string;
  mem_slice : int;
  mem_stamp : int;
  mem_triples : int;
  mem_bytes : int;
}

type chain =
  | Single
  | Chained of segment_info list
  | Sharded of { slices : int; members : member_info list }

type info = {
  version : int;
  triples : int;
  base_triples : int;
  terms : int;
  predicates : int;
  stamp : int;
  chain_stamp : int;
  identity : int;
  file_bytes : int;
  total_bytes : int;
  sections : section_info list;
  chain : chain;
}

let info ?(verify = false) path =
  let segs = List.map (read_segment ~verify) (discover_segments path) in
  with_store path (fun h fd ->
      if verify then verify_stamp path fd h;
      let live, terms, chain_stamp, rev_segs =
        List.fold_left
          (fun (live, terms, stamp, acc) sd ->
            let sg = sd.sd_header in
            if sg.sg_parent <> stamp then
              fail sd.sd_path
                (Err.Delta_chain_broken
                   { expected_parent = stamp; found_parent = sg.sg_parent })
                "";
            if sg.sg_parent_terms <> terms then
              fail sd.sd_path Err.Corrupt
                "segment dictionary base disagrees with the chain";
            let stamp' = fold_stamp stamp sg.sg_stamp in
            ( live + sg.sg_adds - sg.sg_dels,
              terms + sg.sg_new_terms,
              stamp',
              {
                seg_file = sd.sd_path;
                seg_adds = sg.sg_adds;
                seg_dels = sg.sg_dels;
                seg_new_terms = sg.sg_new_terms;
                seg_stamp = sg.sg_stamp;
                seg_chain_stamp = stamp';
                seg_bytes = sg.sg_file_bytes;
              }
              :: acc ))
          (h.h_triples, h.h_terms, h.h_stamp, [])
          segs
      in
      let seg_infos = List.rev rev_segs in
      {
        version = format_version;
        triples = live;
        base_triples = h.h_triples;
        terms;
        predicates = h.h_preds;
        stamp = h.h_stamp;
        chain_stamp;
        identity = identity_of_stamp chain_stamp;
        file_bytes = h.h_file_bytes;
        total_bytes =
          h.h_file_bytes
          + List.fold_left (fun a s -> a + s.seg_bytes) 0 seg_infos;
        sections =
          Array.to_list
            (Array.mapi
               (fun k (_, len) ->
                 { sec_name = section_names.(k); sec_bytes = len })
               h.h_table);
        chain = (match seg_infos with [] -> Single | l -> Chained l);
      })

let looks_like_store path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let mlen = String.length magic in
          match really_input_string ic (min mlen (in_channel_length ic)) with
          | exception (Sys_error _ | End_of_file) -> false
          | "" -> false (* an empty file is Turtle: the empty graph *)
          | have when String.length have = mlen ->
              String.equal have magic || String.equal have manifest_magic
          | have ->
              (* a store cut short: the store reader reports [Truncated],
                 as it does under [--store] *)
              prefixes_a_magic have)
