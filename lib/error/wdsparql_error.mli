(** The structured error taxonomy of the library.

    Entry points that can fail for a {e reportable} reason — malformed
    input, a query outside the well-designed fragment, an exhausted
    resource budget, an unreadable file — surface a [t] instead of an
    ad-hoc [Failure _]/backtrace, so callers (the CLI above all) can print
    a one-line diagnostic and pick the right exit code. See
    [docs/ROBUSTNESS.md]. *)

(** What exactly is wrong with a compiled on-disk store ([Storage]). *)
type store_fault =
  | Bad_magic  (** the file does not start with the store magic *)
  | Version_mismatch of { found : int; expected : int }
      (** a store written by an incompatible format version *)
  | Truncated  (** a section (or the header) extends past end-of-file *)
  | Checksum_mismatch
      (** the payload does not hash to the header's content stamp
          (detected on [verify] loads) *)
  | Corrupt
      (** structurally invalid: overlapping or unsorted sections,
          out-of-range ids, a broken dictionary blob, … *)
  | Delta_chain_broken of { expected_parent : int; found_parent : int }
      (** a delta segment whose recorded parent stamp does not match the
          chain it sits on — the base was rewritten (or a [compact] was
          interrupted) under the segment *)

type t =
  | Parse_error of { source : string; line : int; col : int; msg : string }
      (** Malformed Turtle/N-Triples/query text. [source] names the input
          (a file path, or ["query"]); [line]/[col] are 1-based, 0 when
          unknown. *)
  | Not_well_designed of string
      (** The pattern is outside the well-designed fragment the engine
          evaluates; the payload is the violation diagnostic. *)
  | Budget_exhausted of { phase : string; spent : int }
      (** A resource budget (fuel, deadline, or solution cap) tripped
          while [phase] was running — the structured face of
          {!Resource.Budget.Exhausted}. *)
  | Io_error of { path : string; msg : string }
      (** A file could not be read or written. *)
  | Store_error of { path : string; fault : store_fault; msg : string }
      (** A compiled store file is unusable — never a raw [Failure] or a
          crash from a corrupt mapping; [msg] adds detail (may be
          empty). *)
  | Invalid_input of string
      (** A malformed user-supplied argument (binding spec, bad [k], …). *)
  | Internal of string
      (** A bug or an unclassified failure; exit code distinct from all
          user errors so scripts can tell them apart. *)

exception Error of t
(** Carrier for [t] through exception-based code paths. *)

val fail : t -> 'a
(** [raise (Error t)]. *)

val of_exn : exn -> t option
(** Classify an exception: [Error], {!Resource.Budget.Exhausted},
    [Sys_error], and [Failure] map to a [t]; anything else is [None]
    (let genuine bugs escape). *)

val guard : (unit -> 'a) -> ('a, t) result
(** Run a computation, converting the exceptions {!of_exn} knows about
    into [Error]; unknown exceptions propagate. *)

val attempt : (unit -> 'a) -> 'a option
(** [attempt f] is [Some (f ())], or [None] if [f] exhausted its budget —
    the degradation helper: try the exact computation, fall back on
    [None]. Other classified errors are re-raised as {!Error}. *)

(** Exit codes: [exit_user_error] = 2 (parse, IO, invalid input, not
    well-designed), [exit_budget] = 3, [exit_internal] = 4,
    [exit_store] = 5 (unusable compiled store). *)

val exit_ok : int

val exit_user_error : int

val exit_budget : int

val exit_internal : int

val exit_store : int

val exit_code : t -> int
(** The process exit code the CLI uses for this error. *)

val pp_store_fault : store_fault Fmt.t
(** One-line rendering of a store fault (used inside {!pp} and by the
    tests). *)

val pp : t Fmt.t
(** One-line human-readable rendering (no backtrace). *)

val to_string : t -> string
