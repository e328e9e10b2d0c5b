(** The compiled on-disk store: a versioned binary format holding a
    dictionary-encoded graph — term blob, the three sorted index
    permutations, and the planner statistics — so a cold process maps the
    file and answers queries without parsing or re-encoding anything.

    {2 File layout (format version 2)}

    The base store is a fixed 256-byte header followed by seven
    16-byte-aligned sections (see [docs/PERFORMANCE.md] for diagrams):

    - header: magic ["WDSTORE1"], format version, a byte-order mark,
      triple/term/predicate counts, the content stamp, the three
      distinct-count statistics, and a (offset, length) table of the
      sections;
    - [dict-offsets]: [n_terms + 1] ints delimiting each term's bytes in
      the blob;
    - [term-sort]: the term ids sorted by their serialized bytes, so the
      reverse lookup (term → id) is a binary search over the mapping;
    - [dict-blob]: the serialized terms, each a one-byte tag ('I' IRI,
      'V' variable) followed by the term's text;
    - [spo] / [pos] / [osp]: the raw (s, p, o) id triples of each
      permutation in its sort order, 3 ints per triple — exactly what
      {!Encoded.Encoded_graph} binary-searches;
    - [pstats]: per-predicate statistics rows (pid, triples,
      distinct subjects, distinct objects), sorted by pid.

    Format v2 keeps the base layout byte for byte and adds {b delta
    segments} [<base>.d1, <base>.d2, ...] (magic ["WDSDELT1"]):
    append-only add/delete logs with a dictionary-growth block, each
    pinned to its parent by the chain stamp it extends. {!load}
    discovers the chain and merges it over the base through positional
    overlay views ({!Overlay}) — O(Δ log n) setup, no rewrite of the
    base; {!append} writes one in O(Δ).

    All integers are 64-bit little-endian words; the byte-order mark
    rejects a store read on a machine of the other endianness. Content
    stamps are FNV-1a hashes of the payload folded to 62 bits; the
    identity of a chained store folds the segment stamps, so every
    distinct (base, segments) prefix has a distinct stable identity.

    {2 Failure discipline}

    Every way a file can be unusable — wrong magic, a file shorter than
    the magic ({!Wdsparql_error.Truncated}, distinguished from
    {!Wdsparql_error.Bad_magic} by whether the bytes prefix a known
    magic), newer format version, corrupt structure, checksum mismatch, a
    segment whose parent stamp does not extend the chain
    ({!Wdsparql_error.Delta_chain_broken}), or a gap in the segment
    numbering — raises
    {!Wdsparql_error.Store_error} with the precise fault; a corrupt store
    never surfaces as a raw [Failure], [Invalid_argument], or a crash
    inside a mapping. Validation is layered: headers, section tables and
    chain linkage eagerly at load, dictionary bytes lazily at first
    decode, and full payloads only under [~verify:true]. A manifest of
    the retired shard layout (magic ["WDSMANI1"]) is refused with
    {!Wdsparql_error.Bad_magic} and a message naming the fix: load the
    store it was made from. *)

type section_info = {
  sec_name : string;
  sec_bytes : int;  (** section length, before alignment padding *)
}

type segment_info = {
  seg_file : string;
  seg_adds : int;
  seg_dels : int;
  seg_new_terms : int;
  seg_stamp : int;  (** this segment's own payload stamp *)
  seg_chain_stamp : int;  (** the chain stamp after applying it *)
  seg_bytes : int;
}

(** Describes a member of the retired shard-manifest layout. Nothing
    constructs it; see {!chain}. *)
type member_info = {
  mem_file : string;  (** as recorded in the manifest (relative) *)
  mem_slice : int;
  mem_stamp : int;
  mem_triples : int;
  mem_bytes : int;
}

type chain =
  | Single  (** a plain base store, no segments *)
  | Chained of segment_info list  (** base + delta segments, in order *)
  | Sharded of { slices : int; members : member_info list }
      (** The retired shard-manifest layout: {!info} never returns it.
          Kept only because the traced benchmark helper
          ([perfbench/_helper/wdtrace.ml]) still matches it; delete it
          with that match at the next benchmark change. *)

type info = {
  version : int;
  triples : int;  (** live triples after applying the whole chain *)
  base_triples : int;  (** triples in the base file alone *)
  terms : int;  (** dictionary size including segment growth *)
  predicates : int;  (** distinct predicates of the base ([pstats] rows) *)
  stamp : int;  (** the base file's own content stamp *)
  chain_stamp : int;  (** stamp folded over the whole chain; = [stamp]
                          for [Single] *)
  identity : int;  (** the negative epoch loaded handles carry;
                       [-1 - chain_stamp] *)
  file_bytes : int;  (** the base file alone *)
  total_bytes : int;  (** including segments *)
  sections : section_info list;
  chain : chain;
}

val magic : string
(** The 8-byte base-store magic prefix, ["WDSTORE1"]. *)

val format_version : int

val looks_like_store : string -> bool
(** Whether the file starts with a store magic, or with the retired
    manifest magic (so {!load} can refuse it), or is a non-empty file
    shorter than a magic whose bytes prefix one (a store cut short, so
    {!load} reports it [Truncated]) — the cheap sniff the CLI uses to
    accept a compiled store anywhere a Turtle file is. False for an
    empty file (the empty Turtle graph) and on any read error. *)

val seg_path : string -> int -> string
(** [seg_path base k] is the path of the k-th delta segment
    ([base ^ ".d" ^ k]; segments are numbered from 1). *)

val save : Encoded.Encoded_graph.t -> string -> unit
(** [save enc path] compiles the store to [path] (atomically: written to
    a temporary sibling and renamed over, fsync'd). Statistics for every
    distinct predicate are computed now so loads never pay for them.
    Does {e not} touch delta segments of an earlier store at [path] —
    callers replacing a chained store should {!compact} instead. Raises
    {!Wdsparql_error.Io_error} on filesystem failure. *)

val load : ?verify:bool -> string -> Encoded.Encoded_graph.t
(** [load path] maps the store and wraps its sections into an encoded
    graph backed by the mapping — no parsing, no allocation proportional
    to the base data; the OS pages parts in as queries touch them.

    If delta segments exist, they are read eagerly (O(Δ)), validated
    against the chain, and merged over the base through overlay views;
    planner statistics of predicates the delta touches are recomputed
    exactly from the merged views, untouched predicates keep their
    precomputed rows.

    The result's {!Encoded.Encoded_graph.epoch} is the stable negative
    identity [-1 - chain_stamp], so loading the same file (plus the same
    segments) twice — even across processes — yields the same identity
    and plan caches keyed on it survive. [~verify:true] additionally
    hashes every payload against its header stamp (reads every page).

    Raises {!Wdsparql_error.Store_error} on an unusable file and
    {!Wdsparql_error.Io_error} if it cannot be opened. *)

val load_graph : ?verify:bool -> string -> Rdf.Graph.t
(** {!load}, then {!Encoded.Encoded_graph.register} the store and return
    a {!Rdf.Graph.deferred} handle carrying its identity: the handle
    drops into every API that takes a graph, the encoded evaluation path
    resolves it straight to the mapped store, and only term-level
    consumers (the naive evaluator, Turtle printing) force its lazy
    decode. *)

val info : ?verify:bool -> string -> info
(** Header, section and chain summary without touching the data sections
    (except under [~verify:true], which checksums every payload).
    Validates chain linkage like {!load}, but does not map or decode
    anything. Same errors as {!load}. *)

(** {2 Incremental updates} *)

type append_result = {
  app_file : string;  (** the segment file written *)
  app_adds : int;  (** net additions recorded (after normalization) *)
  app_dels : int;  (** net deletions recorded *)
  app_new_terms : int;  (** dictionary growth *)
  app_chain_stamp : int;  (** the chain stamp after this segment *)
}

val append :
  ?adds:Rdf.Triple.t list -> ?dels:Rdf.Triple.t list -> string ->
  append_result option
(** [append ~adds ~dels path] writes the next delta segment for the
    chain at [path] — O(Δ) in the delta size, never rewriting the base.
    The delta is normalized against the live overlay first: adds already
    present and deletions of absent triples drop out (and a triple in
    both lists nets to "present"). Returns [None] — writing nothing —
    if the normalized delta is empty. New terms are interned in
    canonical order, so the segment bytes (and the resulting chain
    stamp) depend only on the store content and the delta. *)

type compact_result = {
  folded : int;  (** segments folded into the base *)
  compact_stamp : int;  (** the new base's content stamp *)
}

val compact : string -> compact_result
(** Fold the whole chain at [path] into a fresh monolithic base store
    (atomically) and delete the segments. The compacted store's stamp
    equals what a fresh compile of the same triple set produces — the
    round-trip is exact. Crash safety: the new base is renamed into
    place before segments are unlinked; a crash in the window leaves
    stale segments whose parent stamp no longer matches, which the next
    {!load} rejects with {!Wdsparql_error.Delta_chain_broken} instead of
    silently replaying them. *)
