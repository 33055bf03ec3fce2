type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

type field = string * t

let float x =
  if Float.is_finite x then Float x
  else if x = infinity then Str "inf"
  else if x = neg_infinity then Str "-inf"
  else Str "nan"

(* ----------------------------- emitter ---------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The C primitive behind [Printf]'s float conversions: for a finite
   float, [Printf.sprintf "%.17g"] returns exactly its result, without
   interpreting a format string on every call. *)
external format_float : string -> float -> string = "caml_format_float"

(* %.17g may print an integral float without '.' or exponent; that is
   still a valid JSON number.  A [Float] built without {!float} is
   normalised to the string encoding rather than emitting invalid JSON. *)
let float_literal buf x =
  if Float.is_finite x then Buffer.add_string buf (format_float "%.17g" x)
  else escape buf (if x = infinity then "inf" else if x = neg_infinity then "-inf" else "nan")

let emit ~pretty buf json =
  let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float x -> float_literal buf x
    | Str s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          if pretty then begin
            Buffer.add_char buf '\n';
            indent (depth + 1)
          end;
          emit (depth + 1) item)
        items;
      if pretty then begin
        Buffer.add_char buf '\n';
        indent depth
      end;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          if pretty then begin
            Buffer.add_char buf '\n';
            indent (depth + 1)
          end;
          escape buf k;
          Buffer.add_char buf ':';
          if pretty then Buffer.add_char buf ' ';
          emit (depth + 1) v)
        fields;
      if pretty then begin
        Buffer.add_char buf '\n';
        indent depth
      end;
      Buffer.add_char buf '}'
  in
  emit 0 json;
  if pretty then Buffer.add_char buf '\n'

let to_buffer buf json = emit ~pretty:false buf json

let to_string ?(pretty = false) json =
  let buf = Buffer.create 1024 in
  emit ~pretty buf json;
  Buffer.contents buf

(* ----------------------------- parser ----------------------------- *)

exception Bad of int * string

type parse_error = { offset : int; message : string }

let parse_error_to_string e =
  Printf.sprintf "at byte %d: %s" e.offset e.message

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let add_utf8 buf code =
    (* Encode a Unicode scalar value (from \uXXXX) as UTF-8. *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape";
         let e = text.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub text !pos 4 in
           pos := !pos + 4;
           let code =
             try int_of_string ("0x" ^ hex) with Failure _ -> fail "bad \\u escape"
           in
           add_utf8 buf code
         | _ -> fail "unknown escape");
        loop ()
      end
      else begin
        Buffer.add_char buf c;
        loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let is_num_char c =
      match c with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false
    in
    while !pos < n && is_num_char text.[!pos] do
      advance ()
    done;
    let s = String.sub text start (!pos - start) in
    if s = "" || s = "-" then fail "expected number";
    let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
    if is_float then
      match float_of_string_opt s with
      | Some x -> Float x
      | None -> fail "bad number"
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt s with
        | Some x -> Float x
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    Ok v
  with Bad (at, msg) -> Error { offset = at; message = msg }

let of_string text =
  match parse text with
  | Ok v -> v
  | Error e ->
    failwith (Printf.sprintf "Json.of_string: at %d: %s" e.offset e.message)

(* ---------------------------- accessors --------------------------- *)

let member name = function Obj fields -> List.assoc_opt name fields | _ -> None

let get name json =
  match member name json with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Json.get: missing field %S" name)

let to_float = function
  | Float x -> x
  | Int i -> float_of_int i
  | Str "inf" -> infinity
  | Str "-inf" -> neg_infinity
  | Str "nan" -> nan
  | _ -> failwith "Json.to_float: not a number"

let to_int = function Int i -> i | _ -> failwith "Json.to_int: not an int"
let to_str = function Str s -> s | _ -> failwith "Json.to_str: not a string"
let to_list = function List l -> l | _ -> failwith "Json.to_list: not a list"
let to_obj = function Obj f -> f | _ -> failwith "Json.to_obj: not an object"
