(* JSON output with floats (the library's Jsonc has none). *)

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit the float carries. *)
let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num x -> num x
  | Str s -> str s
  | List l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj kv ->
    "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ to_string v) kv) ^ "}"

let write path v =
  let oc = open_out path in
  output_string oc (to_string v);
  output_char oc '\n';
  close_out oc
