(* Sample statistics and the result line.

   Kept free of the protocol stack so the benchmark's own tests can
   check it in isolation. *)

(* --- growable sample buffer ------------------------------------------ *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 256 0.; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

(* Adds every sample of [s] to [into]. *)
let add_all into s =
  for i = 0 to s.n - 1 do
    add into s.a.(i)
  done

let sorted s =
  let b = Array.sub s.a 0 s.n in
  Array.sort Float.compare b;
  b

let mean s =
  if s.n = 0 then nan
  else begin
    let acc = ref 0. in
    for i = 0 to s.n - 1 do
      acc := !acc +. s.a.(i)
    done;
    !acc /. float_of_int s.n
  end

(* --- percentiles ------------------------------------------------------ *)

(* Nearest-rank: the smallest sample with at least [q] of the samples at
   or below it.  The epsilon keeps [0.99 *. 1000.] at rank 990. *)
let rank n q = max 1 (min n (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(rank n q - 1)

(* Samples strictly above the [q]-th percentile's rank. *)
let beyond n q = n - rank n q

(* A tail percentile is only reported where at least ten samples lie
   beyond it; with fewer, the next lower level is reported instead. *)
let tail_levels = [ 0.99; 0.95; 0.9; 0.75; 0.5 ]

let tail_q ?(want = 0.99) n =
  List.find_opt (fun q -> q <= want && beyond n q >= 10) tail_levels

type dist = {
  n : int;
  p50 : float;
  tail : float;
  tail_q : float;  (** the level [tail] was taken at; [want] unless too few samples *)
}

let dist ?want s =
  let v = sorted s in
  let n = Array.length v in
  if n = 0 then None
  else
    let q = Option.value ~default:0.5 (tail_q ?want n) in
    Some { n; p50 = percentile v 0.5; tail = percentile v q; tail_q = q }

(* --- quartiles, median, spread ---------------------------------------- *)

let median xs =
  let v = Array.of_list xs in
  Array.sort Float.compare v;
  let n = Array.length v in
  if n = 0 then invalid_arg "Stats.median: no values";
  if n mod 2 = 1 then v.(n / 2) else (v.((n / 2) - 1) +. v.(n / 2)) /. 2.

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so spreads computed here match the ones a reader computes
   from the printed values. *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)

(* Inter-quartile distance as a share of the median. *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
    let q1, _, q3 = quartiles xs in
    let med = median xs in
    if med = 0. then 0. else (q3 -. q1) /. Float.abs med

(* --- result line ----------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* The shortest decimal that reads back as exactly [x]: every digit the
   float carries, no invented ones.  Never NaN or infinite. *)
let json_float x =
  if not (Float.is_finite x) then invalid_arg "Stats.json_float: not finite";
  let s =
    List.find
      (fun s -> float_of_string s = x)
      [ Printf.sprintf "%.15g" x; Printf.sprintf "%.16g" x; Printf.sprintf "%.17g" x ]
  in
  if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

(* The result: the last line of standard output, exactly these four keys. *)
let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_float value)
          (json_string unit_))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " m)

(* --- what a workload run reports -------------------------------------- *)

(* A metric plus what it rests on ("n=5400 samples", "5 set-ups, spread
   0.031"), printed beside it. *)
type line = { metric : metric; basis : string }

type outcome = {
  backend : string;  (** [wall] or [sim] *)
  attempted : int;
  failed : int;
  errors : string list;  (** failed correctness checks *)
  lines : line list;
}

let line name unit_ value basis = { metric = { name; value; unit_ }; basis }

let samples_basis n = Printf.sprintf "n=%d samples" n

let trials_basis what xs =
  Printf.sprintf "%d %s, spread %.3f" (List.length xs) what (spread xs)

(* The note on a tail taken at [q] where [want] was asked for. *)
let tail_note ~want q =
  if q < want then Printf.sprintf "p%g (too few samples for p%g)" (100. *. q) (100. *. want)
  else Printf.sprintf "p%g" (100. *. q)

(* A timing as its median and its tail, each with the samples behind
   it.  The tail is taken at [want] (p99 unless given) and falls back
   to a lower level only when fewer than ten samples lie beyond it. *)
let dist_lines ?(want = 0.99) ~p50 ~tail ~unit_ s =
  match dist ~want s with
  | None -> []
  | Some d ->
    [
      line p50 unit_ d.p50 (samples_basis d.n);
      line tail unit_ d.tail (Printf.sprintf "n=%d samples, %s" d.n (tail_note ~want d.tail_q));
    ]

(* The mean of the three smallest of [xs], or of all when fewer. *)
let mean_of_least3 xs =
  let q = List.filteri (fun i _ -> i < 3) (List.sort Float.compare xs) in
  List.fold_left ( +. ) 0. q /. float_of_int (List.length q)

(* A metric the workload does not exercise: it reads 0 and says why. *)
let absent name unit_ why = line name unit_ 0. ("not exercised: " ^ why)

(* A timing from a phase cut into equal windows: each window's p50 and
   tail, then the mean over the three quietest windows.  On a shared
   machine outside load only ever adds latency, and it comes in bursts
   and phases that can cover most of a run; the quietest windows are
   what the program itself does, and averaging three of them steadies
   the extreme-value noise of taking just one.  The price: a disturbance
   of the program's own that spares three whole windows does not show.
   Windows without samples are skipped. *)
let windowed_lines ?(want = 0.99) ~p50 ~tail ~unit_ ~window wins =
  match List.filter_map (dist ~want) (Array.to_list wins) with
  | [] -> []
  | ds ->
    let k = List.length ds and n = List.fold_left (fun acc d -> acc + d.n) 0 ds in
    let q = List.fold_left (fun acc d -> Float.min acc d.tail_q) want ds in
    let quietest f = mean_of_least3 (List.map f ds) in
    let basis = Printf.sprintf "mean of the 3 quietest of %d %s windows, n=%d samples" k window n in
    [
      line p50 unit_ (quietest (fun d -> d.p50)) basis;
      line tail unit_ (quietest (fun d -> d.tail))
        (Printf.sprintf "%s, %s%s" basis (tail_note ~want q) (if q < want then " in some window" else ""));
    ]
