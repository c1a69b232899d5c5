(** Global symbol table for message field names.

    Field names repeat endlessly across messages (["$sender"],
    ["$entry"], application field names), so messages store a small
    integer per field instead of the string: lookups compare ints, and
    every copy of a name costs one word.  Ids are dense, allocated in
    first-intern order, and never freed — the name population of a
    running system is tiny and static.

    Single-threaded by design, like the rest of the simulator. *)

(** [intern s] returns the id for [s], allocating one on first use. *)
val intern : string -> int

(** [intern_sub b ~pos ~len] interns the name spelled by that range of
    [b], hashing and comparing in place — the decoder's path; it only
    allocates a string the first time a name is ever seen. *)
val intern_sub : bytes -> pos:int -> len:int -> int

(** [find s] returns [s]'s id only if it was interned before — useful
    for lookups that must not grow the table (a [get] of a name no
    message ever carried cannot allocate state). *)
val find : string -> int option

(** [find_sub b ~pos ~len] is {!find} for the name spelled by that
    range of [b], or [-1] if it was never interned; never grows the
    table (the decoder looks names up while a buffer is still
    unvalidated). *)
val find_sub : bytes -> pos:int -> len:int -> int

(** [name id] is the string for an id previously returned by {!intern}.
    @raise Invalid_argument on an id the table never issued. *)
val name : int -> string

(** [interned ()] is the number of distinct names seen (diagnostics). *)
val interned : unit -> int
