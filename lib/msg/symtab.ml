(* Field-name interner.  Open addressing (rather than stdlib Hashtbl)
   so the decoder can intern a name straight out of a wire buffer —
   hashing and comparing against the bytes range in place — without
   first allocating the string.  Only the first-ever sighting of a name
   allocates.

   The table is domain-local ([Vsync_util.Dls]): symbol ids are only
   meaningful relative to the interner that minted them, and messages
   never cross domains (the parallel harness runs whole worlds per
   domain), so per-domain tables give lock-free interning with no
   cross-domain races.  Within a domain the table stays what it always
   was: a single shared interner for every world on that domain. *)

type state = {
  mutable names : string array;
  mutable count : int;
  (* Power-of-two slot array; -1 marks an empty slot. *)
  mutable slots : int array;
}

let state_key =
  Vsync_util.Dls.make (fun () ->
      { names = Array.make 64 ""; count = 0; slots = Array.make 256 (-1) })

let state () = Vsync_util.Dls.get state_key

(* FNV-1a, truncated to OCaml's positive int range.  [hash_string] and
   [hash_sub] must agree byte for byte. *)
let fnv_prime = 0x01000193
let fnv_basis = 0x811c9dc5

let hash_string s =
  let h = ref fnv_basis in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime land max_int
  done;
  !h

let hash_sub b pos len =
  let h = ref fnv_basis in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * fnv_prime land max_int
  done;
  !h

(* Linear probe for [s]: the interned id when present, [lnot slot] of
   the first empty slot when absent. *)
let lookup st s h =
  let tbl = st.slots in
  let m = Array.length tbl - 1 in
  let rec go i =
    let j = (h + i) land m in
    let id = tbl.(j) in
    if id = -1 then lnot j else if String.equal st.names.(id) s then id else go (i + 1)
  in
  go 0

let equal_sub s b pos len =
  String.length s = len
  &&
  let rec go i =
    i >= len || (String.unsafe_get s i = Bytes.unsafe_get b (pos + i) && go (i + 1))
  in
  go 0

let lookup_sub st b pos len h =
  let tbl = st.slots in
  let m = Array.length tbl - 1 in
  let rec go i =
    let j = (h + i) land m in
    let id = tbl.(j) in
    if id = -1 then lnot j else if equal_sub st.names.(id) b pos len then id else go (i + 1)
  in
  go 0

let ensure_capacity st =
  if 2 * (st.count + 1) >= Array.length st.slots then begin
    let cap' = 2 * Array.length st.slots in
    let tbl = Array.make cap' (-1) in
    let m = cap' - 1 in
    for id = 0 to st.count - 1 do
      let h = hash_string st.names.(id) in
      let rec place i =
        let j = (h + i) land m in
        if tbl.(j) = -1 then tbl.(j) <- id else place (i + 1)
      in
      place 0
    done;
    st.slots <- tbl
  end

let add_name st s =
  let id = st.count in
  if id = Array.length st.names then begin
    let bigger = Array.make (2 * id) "" in
    Array.blit st.names 0 bigger 0 id;
    st.names <- bigger
  end;
  st.names.(id) <- s;
  st.count <- st.count + 1;
  id

let intern s =
  let st = state () in
  ensure_capacity st;
  let r = lookup st s (hash_string s) in
  if r >= 0 then r
  else begin
    let id = add_name st s in
    st.slots.(lnot r) <- id;
    id
  end

let intern_sub b ~pos ~len =
  let st = state () in
  ensure_capacity st;
  let r = lookup_sub st b pos len (hash_sub b pos len) in
  if r >= 0 then r
  else begin
    let id = add_name st (Bytes.sub_string b pos len) in
    st.slots.(lnot r) <- id;
    id
  end

let find s =
  let st = state () in
  let r = lookup st s (hash_string s) in
  if r >= 0 then Some r else None

let find_sub b ~pos ~len =
  let st = state () in
  let r = lookup_sub st b pos len (hash_sub b pos len) in
  if r >= 0 then r else -1

let name id =
  let st = state () in
  if id < 0 || id >= st.count then invalid_arg "Symtab.name: unknown symbol";
  st.names.(id)

let interned () = (state ()).count
