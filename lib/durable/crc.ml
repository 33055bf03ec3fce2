(* Standard table-driven reflected CRC-32, poly 0xEDB88320, on native
   ints: every value fits in 32 bits, so nothing is boxed. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let substring s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc.substring";
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc :=
      Array.unsafe_get table ((!crc lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let string s = substring s ~pos:0 ~len:(String.length s)

let to_hex c = Printf.sprintf "%08lx" c

let of_hex s =
  if String.length s <> 8 then None
  else
    match Int32.of_string_opt ("0x" ^ s) with
    | Some _ as v when String.for_all (function
        | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
        | _ -> false) s -> v
    | _ -> None
