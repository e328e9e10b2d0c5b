type store_fault =
  | Bad_magic
  | Version_mismatch of { found : int; expected : int }
  | Truncated
  | Checksum_mismatch
  | Corrupt
  | Delta_chain_broken of { expected_parent : int; found_parent : int }

type t =
  | Parse_error of { source : string; line : int; col : int; msg : string }
  | Not_well_designed of string
  | Budget_exhausted of { phase : string; spent : int }
  | Io_error of { path : string; msg : string }
  | Store_error of { path : string; fault : store_fault; msg : string }
  | Invalid_input of string
  | Internal of string

exception Error of t

let fail e = raise (Error e)

let of_exn = function
  | Error e -> Some e
  | Resource.Budget.Exhausted { phase; spent } ->
      Some (Budget_exhausted { phase; spent })
  | Sys_error msg -> Some (Io_error { path = ""; msg })
  | Failure msg -> Some (Internal msg)
  | _ -> None

let guard f =
  match f () with
  | v -> Ok v
  | exception e -> ( match of_exn e with Some err -> Error err | None -> raise e)

let attempt f =
  match guard f with
  | Ok v -> Some v
  | Error (Budget_exhausted _) -> None
  | Error e -> fail e

let exit_ok = 0
let exit_user_error = 2
let exit_budget = 3
let exit_internal = 4
let exit_store = 5

let exit_code = function
  | Parse_error _ | Not_well_designed _ | Io_error _ | Invalid_input _ ->
      exit_user_error
  | Budget_exhausted _ -> exit_budget
  | Internal _ -> exit_internal
  | Store_error _ -> exit_store

let pp_store_fault ppf = function
  | Bad_magic -> Fmt.string ppf "not a wdsparql store (bad magic)"
  | Version_mismatch { found; expected } ->
      Fmt.pf ppf "store format version %d (this build reads version %d)"
        found expected
  | Truncated -> Fmt.string ppf "truncated store file"
  | Checksum_mismatch -> Fmt.string ppf "content stamp mismatch"
  | Corrupt -> Fmt.string ppf "corrupt store file"
  | Delta_chain_broken { expected_parent; found_parent } ->
      Fmt.pf ppf
        "delta segment does not extend this base (segment expects parent \
         stamp %#x, chain is at %#x)"
        found_parent expected_parent

let pp ppf = function
  | Parse_error { source; line; col; msg } ->
      if line > 0 then Fmt.pf ppf "%s: line %d, column %d: %s" source line col msg
      else Fmt.pf ppf "%s: %s" source msg
  | Not_well_designed msg -> Fmt.pf ppf "not well-designed: %s" msg
  | Budget_exhausted { phase; spent } ->
      Fmt.pf ppf
        "budget exhausted during %s after %d step(s) — raise --fuel or \
         --timeout, or let the engine degrade (drop --algorithm naive)"
        phase spent
  | Io_error { path; msg } ->
      if path = "" then Fmt.pf ppf "I/O error: %s" msg
      else Fmt.pf ppf "%s: %s" path msg
  | Store_error { path; fault; msg } ->
      if msg = "" then Fmt.pf ppf "%s: %a" path pp_store_fault fault
      else Fmt.pf ppf "%s: %a: %s" path pp_store_fault fault msg
  | Invalid_input msg -> Fmt.pf ppf "invalid input: %s" msg
  | Internal msg -> Fmt.pf ppf "internal error: %s" msg

let to_string e = Fmt.str "%a" pp e
