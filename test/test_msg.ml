(* Unit and property tests for the message subsystem: addresses, entry
   points, the symbol-table message and its binary codec. *)

module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Symtab = Vsync_msg.Symtab

(* --- addresses --- *)

let test_addr_roundtrip () =
  let cases =
    [
      Addr.Proc (Addr.proc ~site:0 ~idx:0 ~incarnation:0);
      Addr.Proc (Addr.proc ~site:65535 ~idx:65535 ~incarnation:0xFFFFFF);
      Addr.Proc (Addr.proc ~site:3 ~idx:17 ~incarnation:2);
      Addr.Group (Addr.group_of_int 0);
      Addr.Group (Addr.group_of_int ((7 lsl 20) lor 123));
    ]
  in
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Format.asprintf "roundtrip %a" Addr.pp a)
        true
        (Addr.equal a (Addr.of_int64 (Addr.to_int64 a))))
    cases

let test_addr_bad_tag () =
  Alcotest.check_raises "bad tag" (Invalid_argument "Addr.of_int64: bad tag") (fun () ->
      ignore (Addr.of_int64 0L))

let test_addr_ranges () =
  Alcotest.check_raises "site too large" (Invalid_argument "Addr.proc: site out of range")
    (fun () -> ignore (Addr.proc ~site:65536 ~idx:0 ~incarnation:0))

let test_addr_same_slot () =
  let a = Addr.proc ~site:1 ~idx:2 ~incarnation:1 in
  let b = Addr.proc ~site:1 ~idx:2 ~incarnation:9 in
  Alcotest.(check bool) "same slot, different incarnation" true (Addr.same_slot a b);
  Alcotest.(check bool) "not equal across incarnations" false (Addr.equal_proc a b)

let prop_addr_roundtrip =
  QCheck.Test.make ~name:"address int64 roundtrip" ~count:500
    QCheck.(triple (0 -- 65535) (0 -- 65535) (0 -- 0xFFFFFF))
    (fun (site, idx, incarnation) ->
      let a = Addr.Proc (Addr.proc ~site ~idx ~incarnation) in
      Addr.equal a (Addr.of_int64 (Addr.to_int64 a)))

(* --- entries --- *)

let test_entries () =
  Alcotest.(check int) "user base" 16 Entry.user_base;
  Alcotest.(check int) "user 0" 16 (Entry.user 0);
  Alcotest.check_raises "entry overflow"
    (Invalid_argument "Entry.user: entry identifiers are one byte") (fun () ->
      ignore (Entry.user 240));
  Alcotest.(check bool) "generics below user base" true (Entry.generic_recovery < Entry.user_base)

(* --- messages --- *)

let sample () =
  let m = Message.create () in
  Message.set_int m "count" 42;
  Message.set_str m "name" "twenty";
  Message.set_bool m "flag" true;
  Message.set_float m "ratio" 0.125;
  Message.set_bytes m "blob" (Bytes.of_string "\x00\x01\xfe\xff");
  Message.set_addr m "who" (Addr.Proc (Addr.proc ~site:2 ~idx:5 ~incarnation:1));
  Message.set_addrs m "them"
    [ Addr.Group (Addr.group_of_int 9); Addr.Proc (Addr.proc ~site:0 ~idx:0 ~incarnation:0) ];
  let inner = Message.create () in
  Message.set_str inner "k" "v";
  Message.set_msg m "nested" inner;
  m

let test_message_fields () =
  let m = sample () in
  Alcotest.(check (option int)) "int" (Some 42) (Message.get_int m "count");
  Alcotest.(check (option string)) "str" (Some "twenty") (Message.get_str m "name");
  Alcotest.(check (option bool)) "bool" (Some true) (Message.get_bool m "flag");
  Alcotest.(check bool) "nested" true (Message.get_msg m "nested" <> None);
  Alcotest.(check (option int)) "absent" None (Message.get_int m "nope");
  Message.remove m "count";
  Alcotest.(check (option int)) "removed" None (Message.get_int m "count");
  Alcotest.check_raises "type error" (Invalid_argument "Message: field \"name\" has unexpected type")
    (fun () -> ignore (Message.get_int m "name"))

let test_message_replace_keeps_order () =
  let m = Message.create () in
  Message.set_int m "a" 1;
  Message.set_int m "b" 2;
  Message.set_int m "a" 3;
  Alcotest.(check (list string)) "insertion order preserved on replace" [ "a"; "b" ]
    (List.map fst (Message.fields m));
  Alcotest.(check (option int)) "value replaced" (Some 3) (Message.get_int m "a")

let test_message_codec_roundtrip () =
  let m = sample () in
  let m' = Message.decode (Message.encode m) in
  Alcotest.(check bool) "roundtrip equal" true (Message.equal m m')

let test_message_size_positive () =
  let m = sample () in
  Alcotest.(check bool) "size = encoded length" true (Message.size m = Bytes.length (Message.encode m))

let test_message_copy_isolation () =
  let m = sample () in
  let c = Message.copy m in
  Message.set_int c "count" 99;
  (match Message.get_msg c "nested" with
  | Some inner -> Message.set_str inner "k" "mutated"
  | None -> Alcotest.fail "nested lost");
  Alcotest.(check (option int)) "original int unchanged" (Some 42) (Message.get_int m "count");
  match Message.get_msg m "nested" with
  | Some inner -> Alcotest.(check (option string)) "original nested unchanged" (Some "v") (Message.get_str inner "k")
  | None -> Alcotest.fail "nested lost in original"

(* --- wire-format fixtures ---
   Hex vectors committed from the encoder's output at the time the
   format was frozen.  Any representation change must keep these bytes
   identical: the simulated network's byte counts, and any persisted
   state, depend on them. *)

let to_hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let of_hex s =
  let n = String.length s / 2 in
  Bytes.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let fixtures =
  [
    ("empty", (fun () -> Message.create ()), "0000");
    ( "scalars",
      (fun () ->
        let m = Message.create () in
        Message.set_int m "count" 42;
        Message.set_bool m "flag" true;
        Message.set_float m "ratio" 0.125;
        Message.set_str m "name" "twenty";
        m),
      "000405636f756e7401000000000000002a04666c6167000105726174696f023fc0000000000000046e616d6503000000067477656e7479"
    );
    ( "full",
      (fun () ->
        let m = Message.create () in
        Message.set_int m "count" 42;
        Message.set_str m "name" "twenty";
        Message.set_bool m "flag" true;
        Message.set_float m "ratio" 0.125;
        Message.set_bytes m "blob" (Bytes.of_string "\x00\x01\xfe\xff");
        Message.set_addr m "who" (Addr.Proc (Addr.proc ~site:2 ~idx:5 ~incarnation:1));
        Message.set_addrs m "them"
          [ Addr.Group (Addr.group_of_int 9); Addr.Proc (Addr.proc ~site:0 ~idx:0 ~incarnation:0) ];
        let inner = Message.create () in
        Message.set_str inner "k" "v";
        Message.set_msg m "nested" inner;
        m),
      "000805636f756e7401000000000000002a046e616d6503000000067477656e747904666c6167000105726174696f023fc000000000000004626c6f6204000000040001feff0377686f050100020005000001047468656d06000202000000000000090100000000000000066e6573746564070000000a0001016b030000000176"
    );
    ( "system",
      (fun () ->
        let m = Message.create () in
        Message.set_sender m (Addr.proc ~site:1 ~idx:2 ~incarnation:3);
        Message.set_session m 77;
        Message.set_entry m Entry.user_base;
        Message.set_str m "payload" "hello";
        m),
      "0004072473656e646572050100010002000003082473657373696f6e01000000000000004d0624656e747279010000000000000010077061796c6f6164030000000568656c6c6f"
    );
    ( "mutated",
      (fun () ->
        let m = Message.create () in
        Message.set_int m "a" 1;
        Message.set_int m "b" 2;
        Message.set_int m "c" 3;
        Message.set_int m "a" 10;
        Message.remove m "b";
        Message.set_int m "b" 20;
        m),
      "0003016101000000000000000a01630100000000000000030162010000000000000014" );
  ]

let test_wire_fixtures () =
  List.iter
    (fun (name, build, hex) ->
      let m = build () in
      Alcotest.(check string) (name ^ " encodes to fixture") hex (to_hex (Message.encode m));
      let decoded = Message.decode (of_hex hex) in
      Alcotest.(check bool) (name ^ " decodes equal") true (Message.equal m decoded);
      Alcotest.(check string)
        (name ^ " re-encodes identically") hex
        (to_hex (Message.encode decoded));
      Alcotest.(check int) (name ^ " size matches") (String.length hex / 2) (Message.size m))
    fixtures

let test_set_after_remove_order () =
  (* A field removed and set again moves to the end of the message: the
     wire order is a,c,b — locked by the "mutated" fixture above and
     asserted structurally here. *)
  let m = Message.create () in
  Message.set_int m "a" 1;
  Message.set_int m "b" 2;
  Message.set_int m "c" 3;
  Message.set_int m "a" 10;
  Message.remove m "b";
  Message.set_int m "b" 20;
  Alcotest.(check (list string)) "field order" [ "a"; "c"; "b" ] (List.map fst (Message.fields m));
  Alcotest.(check (option int)) "a replaced in place" (Some 10) (Message.get_int m "a");
  Alcotest.(check (option int)) "b re-added at end" (Some 20) (Message.get_int m "b")

(* --- copy-on-write isolation --- *)

let test_cow_copy_unaffected_by_original () =
  let m = sample () in
  let c = Message.copy m in
  let before = Message.encode c in
  Message.set_int m "count" 7;
  Message.remove m "name";
  (match Message.get_msg m "nested" with
  | Some inner -> Message.set_str inner "k" "poked"
  | None -> Alcotest.fail "nested lost");
  Alcotest.(check string) "copy bytes unchanged" (to_hex before) (to_hex (Message.encode c))

let test_cow_bytes_isolation () =
  let m = Message.create () in
  Message.set_bytes m "buf" (Bytes.of_string "abcd");
  let c = Message.copy m in
  (match Message.get_bytes c "buf" with
  | Some b -> Bytes.set b 0 'X'
  | None -> Alcotest.fail "buf lost");
  Alcotest.(check (option string))
    "in-place write through the copy's handle stays in the copy" (Some "abcd")
    (Option.map Bytes.to_string (Message.get_bytes m "buf"));
  (match Message.get_bytes m "buf" with
  | Some b -> Bytes.set b 1 'Y'
  | None -> Alcotest.fail "buf lost");
  Alcotest.(check (option string))
    "and the original's writes stay out of the copy" (Some "Xbcd")
    (Option.map Bytes.to_string (Message.get_bytes c "buf"))

let test_cow_nested_isolation_both_ways () =
  let m = Message.create () in
  let inner = Message.create () in
  Message.set_str inner "k" "v";
  Message.set_msg m "inner" inner;
  let c1 = Message.copy m in
  let c2 = Message.copy c1 in
  (* Mutate every handle's nested message; none may leak. *)
  (match Message.get_msg c2 "inner" with
  | Some i -> Message.set_str i "k" "c2"
  | None -> Alcotest.fail "inner lost");
  (match Message.get_msg m "inner" with
  | Some i -> Message.set_str i "k" "m"
  | None -> Alcotest.fail "inner lost");
  let read h = Option.bind (Message.get_msg h "inner") (fun i -> Message.get_str i "k") in
  Alcotest.(check (option string)) "original" (Some "m") (read m);
  Alcotest.(check (option string)) "untouched middle copy" (Some "v") (read c1);
  Alcotest.(check (option string)) "second copy" (Some "c2") (read c2)

let test_cow_retained_nested_handle () =
  (* A nested handle obtained BEFORE the copy must not pierce it. *)
  let m = Message.create () in
  let inner = Message.create () in
  Message.set_str inner "k" "v";
  Message.set_msg m "inner" inner;
  let retained =
    match Message.get_msg m "inner" with Some i -> i | None -> Alcotest.fail "inner lost"
  in
  let c = Message.copy m in
  Message.set_str retained "k" "via-retained";
  Alcotest.(check (option string))
    "copy still sees the pre-copy value" (Some "v")
    (Option.bind (Message.get_msg c "inner") (fun i -> Message.get_str i "k"))

let test_message_system_fields () =
  let m = Message.create () in
  let p = Addr.proc ~site:1 ~idx:1 ~incarnation:1 in
  Message.set_sender m p;
  Message.set_session m 77;
  Message.set_entry m (Entry.user 3);
  Alcotest.(check bool) "sender" true (Message.sender m = Some p);
  Alcotest.(check (option int)) "session" (Some 77) (Message.session m);
  Alcotest.(check (option int)) "entry" (Some (Entry.user 3)) (Message.entry m)

let test_message_decode_garbage () =
  (* 65,535 fields claimed, 3 bytes to hold them: refused before any
     field arrays are sized from the count. *)
  Alcotest.check_raises "garbage rejected"
    (Invalid_argument "Message.decode: field count exceeds buffer") (fun () ->
      ignore (Message.decode (Bytes.of_string "\xff\xff\xff\xff\x00")))

(* Generator for random messages (flat fields). *)
let gen_message =
  let open QCheck.Gen in
  let value =
    oneof
      [
        map (fun i -> Message.Int i) int;
        map (fun s -> Message.Str s) (string_size (0 -- 64));
        map (fun b -> Message.Bool b) bool;
        map (fun f -> Message.Float f) (float_bound_inclusive 1e9);
        map (fun s -> Message.Bytes (Bytes.of_string s)) (string_size (0 -- 128));
      ]
  in
  let field = pair (map (fun s -> "f" ^ s) (string_size ~gen:(char_range 'a' 'z') (1 -- 8))) value in
  map
    (fun fields ->
      let m = Message.create () in
      List.iter (fun (k, v) -> Message.set m k v) fields;
      m)
    (list_size (0 -- 12) field)

let prop_message_roundtrip =
  QCheck.Test.make ~name:"message codec roundtrip" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" Message.pp) gen_message)
    (fun m -> Message.equal m (Message.decode (Message.encode m)))

let prop_cow_isolation =
  (* Mutating a copy never changes the original's bytes, whatever the
     message shape. *)
  QCheck.Test.make ~name:"copy-on-write isolation" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" Message.pp) gen_message)
    (fun m ->
      let before = Message.encode m in
      let c = Message.copy m in
      Message.set_int c "fresh" 1;
      List.iter (fun (k, _) -> Message.set c k (Message.Int 0)) (Message.fields c);
      (match Message.fields m with (k, _) :: _ -> Message.remove c k | [] -> ());
      Bytes.equal before (Message.encode m))

let prop_size_tracks_mutation =
  (* The cached size must never go stale through set/remove/copy. *)
  QCheck.Test.make ~name:"cached size tracks mutation" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" Message.pp) gen_message)
    (fun m ->
      let ok x = Message.size x = Bytes.length (Message.encode x) in
      let fresh = ok m in
      let c = Message.copy m in
      Message.set_str c "extra" "xyzzy";
      let after_set = ok c && ok m in
      (match Message.fields m with
      | (k, _) :: _ -> Message.remove m k
      | [] -> ());
      fresh && after_set && ok m)

(* Hostile input: random bytes, and valid encodings (some nested) with
   bytes overwritten and the tail maybe cut off — an overwritten name
   byte followed by a cut is exactly a never-seen name in a buffer that
   is then rejected.  A rejected decode must raise [Invalid_argument]
   and nothing else, and must leave the never-freed symbol table as it
   was. *)
let gen_hostile_buffer =
  let open QCheck.Gen in
  let random = map Bytes.of_string (string_size (0 -- 64)) in
  let mutated =
    let* m = gen_message in
    let* inner = gen_message in
    let* nest = bool in
    if nest then Message.set_msg m "inner" inner;
    let b = Message.encode m in
    let len = Bytes.length b in
    let* flips = list_size (1 -- 3) (pair (0 -- (len - 1)) (0 -- 255)) in
    let* cut = oneof [ return len; 0 -- len ] in
    List.iter (fun (pos, c) -> Bytes.set_uint8 b pos c) flips;
    return (Bytes.sub b 0 cut)
  in
  oneof [ random; mutated ]

let prop_rejected_decode_leaves_no_state =
  QCheck.Test.make ~name:"rejected decode: Invalid_argument only, no interned names" ~count:2000
    (QCheck.make ~print:(fun b -> String.escaped (Bytes.to_string b)) gen_hostile_buffer)
    (fun b ->
      let before = Symtab.interned () in
      match Message.decode b with
      | _ -> true
      | exception Invalid_argument _ -> Symtab.interned () = before)

let suite =
  [
    Alcotest.test_case "address roundtrip" `Quick test_addr_roundtrip;
    Alcotest.test_case "address bad tag" `Quick test_addr_bad_tag;
    Alcotest.test_case "address ranges" `Quick test_addr_ranges;
    Alcotest.test_case "address same slot" `Quick test_addr_same_slot;
    QCheck_alcotest.to_alcotest prop_addr_roundtrip;
    Alcotest.test_case "entries" `Quick test_entries;
    Alcotest.test_case "message fields" `Quick test_message_fields;
    Alcotest.test_case "message replace keeps order" `Quick test_message_replace_keeps_order;
    Alcotest.test_case "message codec roundtrip" `Quick test_message_codec_roundtrip;
    Alcotest.test_case "message size" `Quick test_message_size_positive;
    Alcotest.test_case "message copy isolation" `Quick test_message_copy_isolation;
    Alcotest.test_case "message system fields" `Quick test_message_system_fields;
    Alcotest.test_case "message decode garbage" `Quick test_message_decode_garbage;
    QCheck_alcotest.to_alcotest prop_message_roundtrip;
    QCheck_alcotest.to_alcotest prop_rejected_decode_leaves_no_state;
    Alcotest.test_case "wire-format fixtures" `Quick test_wire_fixtures;
    Alcotest.test_case "set after remove wire order" `Quick test_set_after_remove_order;
    Alcotest.test_case "cow copy unaffected by original" `Quick test_cow_copy_unaffected_by_original;
    Alcotest.test_case "cow bytes isolation" `Quick test_cow_bytes_isolation;
    Alcotest.test_case "cow nested isolation both ways" `Quick test_cow_nested_isolation_both_ways;
    Alcotest.test_case "cow retained nested handle" `Quick test_cow_retained_nested_handle;
    QCheck_alcotest.to_alcotest prop_cow_isolation;
    QCheck_alcotest.to_alcotest prop_size_tracks_mutation;
  ]
