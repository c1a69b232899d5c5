(* The message symbol table, reworked for the broadcast hot path:

   - Field names are interned ({!Symtab}); a message stores parallel
     arrays of symbol ids and values in insertion order, so lookups
     compare ints and construction never rebuilds a list.
   - Copies are copy-on-write: [copy] shares the store in O(1) and the
     first mutation through either handle pays the actual clone.  The
     runtime copies messages once per local delivery and once per
     responder, and the overwhelmingly common case — the recipient only
     reads scalar fields — now costs nothing.
   - The encoded size is cached on the store and invalidated by
     mutation, so the per-receive [Proto.size] walk stops re-encoding
     bodies.  The size is computed analytically from the layout; the
     codec below is the single source of truth for that layout.

   Isolation contract (checked by test_msg): mutating a copy through
   the Message API — including nested messages and [Bytes] payloads
   obtained from accessors after the copy — never alters the original,
   exactly as with the old deep copy.  A [get] that exposes mutable
   interior (bytes, nested messages) from a shared store detaches the
   handle first.  The one observable difference from deep copying:
   a raw [bytes] value retained from *before* a copy stays physically
   shared until some handle detaches, so out-of-API in-place writes to
   it can leak between handles; nothing in this codebase (or any
   reasonable toolkit client) mutates a payload it no longer owns. *)

type t = { mutable store : store }

and store = {
  mutable ids : int array; (* interned field names, insertion order *)
  mutable vals : value array;
  mutable len : int;
  mutable shared : bool; (* some other handle may see this store *)
  mutable nested : int; (* count of Nested fields in [vals] *)
  mutable enc_size : int; (* cached encoded size; -1 = unknown *)
}

and value =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Bytes of bytes
  | Address of Addr.t
  | Addresses of Addr.t list
  | Nested of t

let create () =
  { store = { ids = [||]; vals = [||]; len = 0; shared = false; nested = 0; enc_size = -1 } }

(* --- copy-on-write machinery --- *)

(* Copies are copy-on-write, with two regimes picked per message:

   - Flat message (no [Nested] field): share the store and mark it;
     the first mutation through any handle clones first ([unshare]).
     O(1), and the regime the runtime hot path lives in — delivery
     bodies are flat.

   - Message with nested fields: clone the field arrays eagerly,
     giving [Bytes] payloads private storage and re-entering [copy]
     for children.  Sharing the store here would let a handle to an
     inner message retained from before the copy pierce it: mutating
     that handle reseats its store, and a shared cell embedding the
     handle would show the new store to every copy.  With a cloned
     cell the copy keeps its own child handle, so the reseat stays
     invisible.  O(fields) per level that contains messages — never
     the hot path.

   Consequently a shared store never holds a [Nested] cell ([set]
   detaches before writing one), so [unshare] and interior exposure
   in [get] only have [Bytes] to worry about. *)
let rec copy t =
  let s = t.store in
  if s.nested = 0 then begin
    s.shared <- true;
    { store = s }
  end
  else begin
    let ids = Array.sub s.ids 0 s.len in
    let vals = Array.sub s.vals 0 s.len in
    for i = 0 to s.len - 1 do
      match vals.(i) with
      | Bytes b -> vals.(i) <- Bytes (Stdlib.Bytes.copy b)
      | Nested inner -> vals.(i) <- Nested (copy inner)
      | Bool _ | Int _ | Float _ | Str _ | Address _ | Addresses _ -> ()
    done;
    { store = { ids; vals; len = s.len; shared = false; nested = s.nested; enc_size = s.enc_size } }
  end

(* Detach [t] from the sharing group: clone the arrays and give bytes
   payloads private storage.  The cached size survives — the clone's
   content is identical. *)
let unshare t =
  if t.store.shared then begin
    let s = t.store in
    let ids = Array.copy s.ids in
    let vals = Array.copy s.vals in
    for i = 0 to s.len - 1 do
      match vals.(i) with
      | Bytes b -> vals.(i) <- Bytes (Stdlib.Bytes.copy b)
      (* Nested cells cannot appear in a shared store; see [copy]. *)
      | Bool _ | Int _ | Float _ | Str _ | Address _ | Addresses _ | Nested _ -> ()
    done;
    t.store <- { ids; vals; len = s.len; shared = false; nested = s.nested; enc_size = s.enc_size }
  end

(* --- field operations --- *)

let index_of s id =
  let n = s.len in
  let ids = s.ids in
  let rec go i = if i >= n then -1 else if Array.unsafe_get ids i = id then i else go (i + 1) in
  go 0

let is_nested = function
  | Nested _ -> true
  | Bool _ | Int _ | Float _ | Str _ | Bytes _ | Address _ | Addresses _ -> false

let grow s =
  let cap = Array.length s.ids in
  (* Runtime-stamped bodies carry ~8 fields; start there so the common
     construct path grows exactly once. *)
  let cap' = if cap = 0 then 8 else 2 * cap in
  let ids = Array.make cap' 0 and vals = Array.make cap' (Bool false) in
  Array.blit s.ids 0 ids 0 s.len;
  Array.blit s.vals 0 vals 0 s.len;
  s.ids <- ids;
  s.vals <- vals

let set t name v =
  unshare t;
  let s = t.store in
  let id = Symtab.intern name in
  let rec replace i found =
    if i >= s.len then found
    else begin
      (* Replace every occurrence, as the old assoc-list store did:
         duplicate names can only enter through [decode]. *)
      if s.ids.(i) = id then begin
        if is_nested s.vals.(i) then s.nested <- s.nested - 1;
        if is_nested v then s.nested <- s.nested + 1;
        s.vals.(i) <- v;
        replace (i + 1) true
      end
      else replace (i + 1) found
    end
  in
  if not (replace 0 false) then begin
    if s.len = Array.length s.ids then grow s;
    s.ids.(s.len) <- id;
    s.vals.(s.len) <- v;
    s.len <- s.len + 1;
    if is_nested v then s.nested <- s.nested + 1
  end;
  s.enc_size <- -1

let remove t name =
  match Symtab.find name with
  | None -> () (* a name no message ever carried *)
  | Some id ->
    if index_of t.store id >= 0 then begin
      unshare t;
      let s = t.store in
      let j = ref 0 in
      for i = 0 to s.len - 1 do
        if s.ids.(i) = id then begin
          if is_nested s.vals.(i) then s.nested <- s.nested - 1
        end
        else begin
          s.ids.(!j) <- s.ids.(i);
          s.vals.(!j) <- s.vals.(i);
          incr j
        end
      done;
      (* Release dropped slots so removed payloads don't linger. *)
      for i = !j to s.len - 1 do
        s.vals.(i) <- Bool false
      done;
      s.len <- !j;
      s.enc_size <- -1
    end

let get t name =
  match Symtab.find name with
  | None -> None
  | Some id ->
    let s = t.store in
    let i = index_of s id in
    if i < 0 then None
    else begin
      match s.vals.(i) with
      | (Bytes _ | Nested _) when s.shared ->
        (* Handing out mutable interior from a shared store would let a
           mutation leak across handles: detach first. *)
        unshare t;
        let s = t.store in
        Some s.vals.(index_of s id)
      | v -> Some v
    end

let get_exn t name =
  match get t name with
  | Some v -> v
  | None -> raise Not_found

let mem t name =
  match Symtab.find name with None -> false | Some id -> index_of t.store id >= 0

let fields t =
  if t.store.shared then unshare t;
  let s = t.store in
  List.init s.len (fun i -> (Symtab.name s.ids.(i), s.vals.(i)))

let type_error name = invalid_arg (Printf.sprintf "Message: field %S has unexpected type" name)

let get_int t name =
  match get t name with Some (Int i) -> Some i | None -> None | Some _ -> type_error name

let get_str t name =
  match get t name with Some (Str s) -> Some s | None -> None | Some _ -> type_error name

let get_bool t name =
  match get t name with Some (Bool b) -> Some b | None -> None | Some _ -> type_error name

let get_float t name =
  match get t name with Some (Float f) -> Some f | None -> None | Some _ -> type_error name

let get_bytes t name =
  match get t name with Some (Bytes b) -> Some b | None -> None | Some _ -> type_error name

let get_addr t name =
  match get t name with Some (Address a) -> Some a | None -> None | Some _ -> type_error name

let get_addrs t name =
  match get t name with Some (Addresses a) -> Some a | None -> None | Some _ -> type_error name

let get_msg t name =
  match get t name with Some (Nested m) -> Some m | None -> None | Some _ -> type_error name

let set_int t name i = set t name (Int i)
let set_str t name s = set t name (Str s)
let set_bool t name b = set t name (Bool b)
let set_float t name f = set t name (Float f)
let set_bytes t name b = set t name (Bytes b)
let set_addr t name a = set t name (Address a)
let set_addrs t name a = set t name (Addresses a)
let set_msg t name m = set t name (Nested m)

(* System fields live in the same symbol table under reserved names. *)
let f_sender = "$sender"
let f_session = "$session"
let f_entry = "$entry"

let sender t =
  match get_addr t f_sender with
  | Some (Addr.Proc p) -> Some p
  | Some (Addr.Group _) -> invalid_arg "Message.sender: group address in $sender"
  | None -> None

let set_sender t p = set_addr t f_sender (Addr.Proc p)

let session t = get_int t f_session
let set_session t s = set_int t f_session s

let entry t = get_int t f_entry
let set_entry t e = set_int t f_entry e

(* --- Wire format ---

   message  := u16 field-count, fields
   field    := u8 name-len, name bytes, u8 type-tag, payload
   payloads := Bool u8 | Int i64 | Float 8 bytes | Str/Bytes u32+body
             | Address i64 | Addresses u16 + i64s | Nested u32 + message

   Byte-identical to the original assoc-list implementation: fields are
   emitted in insertion order, names as their interned strings. *)

let tag_bool = 0
let tag_int = 1
let tag_float = 2
let tag_str = 3
let tag_bytes = 4
let tag_addr = 5
let tag_addrs = 6
let tag_nested = 7

let rec encode_to buf t =
  let s = t.store in
  if s.len > 0xFFFF then invalid_arg "Message.encode: too many fields";
  Buffer.add_uint16_be buf s.len;
  for i = 0 to s.len - 1 do
    encode_field buf (Symtab.name s.ids.(i)) s.vals.(i)
  done

and encode_field buf name v =
  let name_len = String.length name in
  if name_len > 255 then invalid_arg "Message.encode: field name too long";
  Buffer.add_uint8 buf name_len;
  Buffer.add_string buf name;
  match v with
  | Bool b ->
    Buffer.add_uint8 buf tag_bool;
    Buffer.add_uint8 buf (if b then 1 else 0)
  | Int i ->
    Buffer.add_uint8 buf tag_int;
    Buffer.add_int64_be buf (Int64.of_int i)
  | Float f ->
    Buffer.add_uint8 buf tag_float;
    Buffer.add_int64_be buf (Int64.bits_of_float f)
  | Str s ->
    Buffer.add_uint8 buf tag_str;
    Buffer.add_int32_be buf (Int32.of_int (String.length s));
    Buffer.add_string buf s
  | Bytes b ->
    Buffer.add_uint8 buf tag_bytes;
    Buffer.add_int32_be buf (Int32.of_int (Stdlib.Bytes.length b));
    Buffer.add_bytes buf b
  | Address a ->
    Buffer.add_uint8 buf tag_addr;
    Buffer.add_int64_be buf (Addr.to_int64 a)
  | Addresses addrs ->
    Buffer.add_uint8 buf tag_addrs;
    let n = List.length addrs in
    if n > 0xFFFF then invalid_arg "Message.encode: too many addresses";
    Buffer.add_uint16_be buf n;
    List.iter (fun a -> Buffer.add_int64_be buf (Addr.to_int64 a)) addrs
  | Nested m ->
    Buffer.add_uint8 buf tag_nested;
    let inner = Bufpool.acquire () in
    encode_to inner m;
    Buffer.add_int32_be buf (Int32.of_int (Buffer.length inner));
    Buffer.add_buffer buf inner;
    Bufpool.release inner

let encode_into buf t = encode_to buf t

let encode t =
  Bufpool.with_buf (fun buf ->
      encode_to buf t;
      Buffer.to_bytes buf)

(* The encoded size, computed from the layout above without building
   the bytes, and cached.  A store holding nested messages cannot trust
   its own cache (the child can be mutated through a retained handle
   without this store noticing), so only flat messages memoize the
   total — the children still serve their own cached sizes. *)

let rec size t =
  let s = t.store in
  if s.enc_size >= 0 && s.nested = 0 then s.enc_size
  else begin
    let total = ref 2 in
    for i = 0 to s.len - 1 do
      total := !total + 2 + String.length (Symtab.name s.ids.(i)) + value_size s.vals.(i)
    done;
    if s.nested = 0 then s.enc_size <- !total;
    !total
  end

and value_size = function
  | Bool _ -> 1
  | Int _ | Float _ | Address _ -> 8
  | Str s -> 4 + String.length s
  | Bytes b -> 4 + Stdlib.Bytes.length b
  | Addresses l -> 2 + (8 * List.length l)
  | Nested m -> 4 + size m

exception Malformed of string

(* [unseen] collects the fields whose name the symbol table has never
   seen, as (ids array, slot, name offset), newest first: they are
   interned only once the whole buffer has decoded, so a rejected
   buffer leaves no names behind. *)
type cursor = { data : bytes; mutable pos : int; mutable unseen : (int array * int * int) list }

let need cur n =
  if cur.pos + n > Stdlib.Bytes.length cur.data then raise (Malformed "truncated buffer")

let read_u8 cur =
  need cur 1;
  let v = Stdlib.Bytes.get_uint8 cur.data cur.pos in
  cur.pos <- cur.pos + 1;
  v

let read_u16 cur =
  need cur 2;
  let v = Stdlib.Bytes.get_uint16_be cur.data cur.pos in
  cur.pos <- cur.pos + 2;
  v

let read_i32 cur =
  need cur 4;
  let v = Int32.to_int (Stdlib.Bytes.get_int32_be cur.data cur.pos) in
  cur.pos <- cur.pos + 4;
  if v < 0 then raise (Malformed "negative length");
  v

let read_i64 cur =
  need cur 8;
  let v = Stdlib.Bytes.get_int64_be cur.data cur.pos in
  cur.pos <- cur.pos + 8;
  v

let read_string cur n =
  need cur n;
  let s = Stdlib.Bytes.sub_string cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  s

(* The smallest encoded field: name length, empty name, tag, bool. *)
let min_field_bytes = 3

let rec decode_from cur =
  let start = cur.pos in
  let n = read_u16 cur in
  if n * min_field_bytes > Stdlib.Bytes.length cur.data - cur.pos then
    raise (Malformed "field count exceeds buffer");
  let ids = Array.make (max n 1) 0 and vals = Array.make (max n 1) (Bool false) in
  let nested = ref 0 in
  for i = 0 to n - 1 do
    let name_len = read_u8 cur in
    need cur name_len;
    let id = Symtab.find_sub cur.data ~pos:cur.pos ~len:name_len in
    if id < 0 then cur.unseen <- (ids, i, cur.pos) :: cur.unseen;
    ids.(i) <- id;
    cur.pos <- cur.pos + name_len;
    let v = decode_value cur in
    vals.(i) <- v;
    if is_nested v then incr nested
  done;
  (* A decoded message owns its storage outright, and we know its exact
     encoded length for free. *)
  { store = { ids; vals; len = n; shared = false; nested = !nested; enc_size = cur.pos - start } }

and decode_value cur =
  let tag = read_u8 cur in
  if tag = tag_bool then Bool (read_u8 cur <> 0)
  else if tag = tag_int then Int (Int64.to_int (read_i64 cur))
  else if tag = tag_float then Float (Int64.float_of_bits (read_i64 cur))
  else if tag = tag_str then
    let len = read_i32 cur in
    Str (read_string cur len)
  else if tag = tag_bytes then
    let len = read_i32 cur in
    Bytes (Stdlib.Bytes.of_string (read_string cur len))
  else if tag = tag_addr then Address (Addr.of_int64 (read_i64 cur))
  else if tag = tag_addrs then begin
    let n = read_u16 cur in
    let rec loop i acc =
      if i = n then List.rev acc else loop (i + 1) (Addr.of_int64 (read_i64 cur) :: acc)
    in
    Addresses (loop 0 [])
  end
  else if tag = tag_nested then begin
    let len = read_i32 cur in
    need cur len;
    let stop = cur.pos + len in
    let m = decode_from cur in
    if cur.pos <> stop then raise (Malformed "nested message length mismatch");
    Nested m
  end
  else raise (Malformed (Printf.sprintf "unknown field tag %d" tag))

let decode b =
  let cur = { data = b; pos = 0; unseen = [] } in
  match decode_from cur with
  | m ->
    if cur.pos <> Stdlib.Bytes.length b then invalid_arg "Message.decode: trailing bytes";
    (* Accepted: intern the new names, in buffer order. *)
    List.iter
      (fun (ids, i, pos) ->
        ids.(i) <- Symtab.intern_sub b ~pos ~len:(Stdlib.Bytes.get_uint8 b (pos - 1)))
      (List.rev cur.unseen);
    m
  | exception Malformed why -> invalid_arg ("Message.decode: " ^ why)
  | exception Invalid_argument why -> invalid_arg ("Message.decode: " ^ why)

let rec equal a b =
  let sa = a.store and sb = b.store in
  sa.len = sb.len
  &&
  let rec go i =
    if i >= sa.len then true
    else
      let j = index_of sb sa.ids.(i) in
      j >= 0 && equal_value sa.vals.(i) sb.vals.(j) && go (i + 1)
  in
  go 0

and equal_value v w =
  match v, w with
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | Str a, Str b -> String.equal a b
  | Bytes a, Bytes b -> Stdlib.Bytes.equal a b
  | Address a, Address b -> Addr.equal a b
  | Addresses a, Addresses b -> List.length a = List.length b && List.for_all2 Addr.equal a b
  | Nested a, Nested b -> equal a b
  | (Bool _ | Int _ | Float _ | Str _ | Bytes _ | Address _ | Addresses _ | Nested _), _ -> false

let rec pp ppf t =
  let s = t.store in
  let pp_field ppf i = Format.fprintf ppf "%s=%a" (Symtab.name s.ids.(i)) pp_value s.vals.(i) in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_field)
    (List.init s.len Fun.id)

and pp_value ppf = function
  | Bool b -> Format.fprintf ppf "%b" b
  | Int i -> Format.fprintf ppf "%d" i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s
  | Bytes b -> Format.fprintf ppf "<%d bytes>" (Stdlib.Bytes.length b)
  | Address a -> Addr.pp ppf a
  | Addresses addrs ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Addr.pp)
      addrs
  | Nested m -> pp ppf m
