(* What both helpers share: files, the op plan and input parsing. *)

open Rdf

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let ( // ) = Filename.concat

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("wdbench: " ^ s); exit 2) fmt

(* One line of [ops.tsv]: see wdbench.ml. *)
type op = {
  cls : string;
  kind : string;
  data : string;
  query : string;
  arg : string;
  key : string;
}

let read_ops dir =
  read_file (dir // "ops.tsv")
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.split_on_char '\t' l with
         | [ id; cls; kind; data; query; arg; key; _round ] ->
             (int_of_string id, { cls; kind; data; query; arg; key })
         | _ -> fail "bad op line %S" l)

let read_ids path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map int_of_string

let parse_query path =
  match Sparql.Parser.parse (read_file path) with
  | Ok p -> p
  | Error msg -> fail "%s: %s" path msg

let parse_ttl path =
  match Turtle.parse_graph_err ~source:path (read_file path) with
  | Ok g -> g
  | Error e -> fail "%s" (Wdsparql_error.to_string e)

let parse_mapping spec =
  String.split_on_char ',' spec
  |> List.map (fun b ->
         match String.index_opt b '=' with
         | Some i ->
             ( Variable.of_string (String.sub b 0 i),
               Iri.of_string (String.sub b (i + 1) (String.length b - i - 1)) )
         | None -> fail "bad binding %s" b)
  |> Sparql.Mapping.of_list
