open Rdf

type t = Iri.t Variable.Map.t

let empty = Variable.Map.empty
let of_list l = Variable.Map.of_seq (List.to_seq l)
let to_list m = Variable.Map.bindings m
let dom m = Variable.Map.fold (fun v _ acc -> Variable.Set.add v acc) m Variable.Set.empty
let find v m = Variable.Map.find_opt v m
let add = Variable.Map.add
let cardinal = Variable.Map.cardinal

let compatible m1 m2 =
  Variable.Map.for_all
    (fun v i ->
      match Variable.Map.find_opt v m2 with
      | Some j -> Iri.equal i j
      | None -> true)
    m1

let union m1 m2 = Variable.Map.union (fun _ i _ -> Some i) m1 m2

let subsumes m2 m1 =
  Variable.Map.for_all
    (fun v i ->
      match Variable.Map.find_opt v m2 with
      | Some j -> Iri.equal i j
      | None -> false)
    m1

let apply m triple =
  Triple.subst
    (fun v -> Option.map (fun i -> Term.Iri i) (Variable.Map.find_opt v m))
    triple

let restrict vars m = Variable.Map.filter (fun v _ -> Variable.Set.mem v vars) m

let to_assignment m = Variable.Map.map (fun i -> Term.Iri i) m

let of_assignment a =
  let exception Bad in
  match
    Variable.Map.map
      (function Term.Iri i -> i | Term.Var _ -> raise Bad)
      a
  with
  | m -> Some m
  | exception Bad -> None

let equal = Variable.Map.equal Iri.equal
let compare = Variable.Map.compare Iri.compare

let pp ppf m =
  (* [Term.pp] prints encoded literals back in literal syntax *)
  let binding ppf (v, i) =
    Fmt.pf ppf "%a ↦ %a" Variable.pp v Term.pp (Term.Iri i)
  in
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma binding) (to_list m)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
