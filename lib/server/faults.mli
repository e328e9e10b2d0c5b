(** Deterministic fault injection for the server's degradation paths.

    A spec like ["slow:9,disconnect:11,malformed:5"] arms each fault
    kind with a period: request [i] (1-based, in accept order) suffers
    the kind whose period divides [i]. When several periods divide the
    same index, the fixed priority
    [Disconnect > Slow > Malformed > Starve > Poison] picks exactly one,
    so kinds are mutually exclusive per request and a harness can
    predict every request's fate from its index alone.

    What each kind does, and the structured error it must surface:
    - [Disconnect] — the client vanishes mid-request: the connection is
      dropped, no response (the client sees EOF).
    - [Slow] — the client stalls mid-request: the read deadline trips and
      the server answers [408].
    - [Malformed] — the request line is corrupted before parsing: [400].
    - [Starve] — the request's budget is replaced by a near-empty one:
      [408] with the tripping phase.
    - [Poison] — the plan-cache entry compiled for this request is
      poisoned: [500] for this request alone, and the entry is evicted
      so the next identical query recompiles cleanly. *)

type kind = Disconnect | Slow | Malformed | Starve | Poison

val all : kind list
(** Every kind, in priority order. *)

type t

val none : t

val parse : string -> (t, string) result
(** Parse a ["kind:period,..."] spec; the empty string means no faults.
    Rejects unknown kinds, non-positive periods, and duplicates. *)

val for_request : t -> int -> kind option
(** The fault (if any) armed for the request with this 1-based index. *)

val kind_name : kind -> string
val to_string : t -> string
