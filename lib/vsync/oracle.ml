module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Obs_tracer = Vsync_obs.Tracer
module Obs_event = Vsync_obs.Event
module Metrics = Vsync_obs.Metrics

type violation = { invariant : string; detail : string }

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.invariant v.detail

type view_obs = {
  v_id : int;
  v_members : string list;
  v_failed : string list; (* members this change reported as failed *)
}

type pevent =
  | Delivered of { tag : int; at : int }
  | Viewed of view_obs

type tracked = {
  proc : Runtime.proc;
  pname : string;
  base_view : int option; (* membership view current when tracking began *)
  mutable events : pevent list; (* newest first *)
  mutable delivered_tags : int list; (* newest first *)
}

type send_rec = {
  s_mode : Types.mode;
  s_sender : string;
  s_site : int;
  s_member : bool; (* sender held a group copy (member send) vs client relay *)
  s_seq : int; (* per-sender send index *)
  s_view : int option;
  s_deps : int list; (* tags the sender had delivered before sending *)
  s_at : int;
}

(* A network split the harness vouches for: symmetric, covering every
   site, alone in its window, with no concurrent crashes — the cases
   where the primary-partition rule owes the majority side progress. *)
type partition_note = {
  p_from : int;
  p_until : int;
  p_left : int list;
  p_right : int list;
}

type t = {
  world : World.t;
  gid : Addr.group_id;
  tag_field : string;
  mutable tracked : tracked list; (* newest first *)
  sends : (int, send_rec) Hashtbl.t;
  send_seq : (string, int) Hashtbl.t;
  (* Runtime-level ground truth collected from the typed event stream
     (when tracing is enabled): (site, usite, useq) -> delivery count,
     and the set of uids each site reported stable. *)
  obs_deliveries : (int * int * int, int) Hashtbl.t;
  obs_stabilized : (int * int * int, unit) Hashtbl.t;
  (* (group, view_id) -> per-site installed membership shape, from
     View_install events: the raw material of the no-split-brain
     check. *)
  obs_views : (int * int, (int * int * int) list) Hashtbl.t;
  mutable partitions : partition_note list;
}

let create ?(tag_field = "tag") world ~gid =
  let t =
    {
      world;
      gid;
      tag_field;
      tracked = [];
      sends = Hashtbl.create 64;
      send_seq = Hashtbl.create 8;
      obs_deliveries = Hashtbl.create 256;
      obs_stabilized = Hashtbl.create 256;
      obs_views = Hashtbl.create 32;
      partitions = [];
    }
  in
  let tr = World.trace world in
  Obs_tracer.add_sink tr (fun (r : Obs_event.record) ->
      match r.Obs_event.ev with
      | Obs_event.Deliver { site; usite; useq; _ } ->
        let key = (site, usite, useq) in
        let n = Option.value ~default:0 (Hashtbl.find_opt t.obs_deliveries key) in
        Hashtbl.replace t.obs_deliveries key (n + 1)
      | Obs_event.Stabilize { site; usite; useq } ->
        Hashtbl.replace t.obs_stabilized (site, usite, useq) ()
      | Obs_event.View_install { site; group; view_id; nsites; mhash } ->
        let key = (group, view_id) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt t.obs_views key) in
        Hashtbl.replace t.obs_views key ((site, nsites, mhash) :: prev)
      | _ -> ());
  t

let note_partition t ~from_us ~until_us ~left ~right =
  if until_us > from_us && left <> [] && right <> [] then
    t.partitions <-
      { p_from = from_us; p_until = until_us; p_left = left; p_right = right } :: t.partitions

let tracked_procs t = List.rev_map (fun tr -> tr.proc) t.tracked

let find_tracked t proc =
  List.find_opt (fun tr -> Runtime.proc_uid tr.proc = Runtime.proc_uid proc) t.tracked

let monitor_views t tr =
  Runtime.pg_monitor tr.proc t.gid (fun v changes ->
      tr.events <-
        Viewed
          {
            v_id = v.View.view_id;
            v_members = List.map Addr.proc_to_string v.View.members;
            v_failed =
              List.filter_map
                (function
                  | View.Member_failed p -> Some (Addr.proc_to_string p)
                  | View.Member_joined _ | View.Member_left _ -> None)
                changes;
          }
        :: tr.events)

let track t proc =
  match find_tracked t proc with
  | Some _ -> ()
  | None ->
    let tr =
      {
        proc;
        pname = Addr.proc_to_string (Runtime.proc_addr proc);
        base_view = Option.map (fun v -> v.View.view_id) (Runtime.pg_view proc t.gid);
        events = [];
        delivered_tags = [];
      }
    in
    t.tracked <- tr :: t.tracked;
    monitor_views t tr

(* After an evicted process rejoins, its group copy — monitor
   registration included — is a fresh one: re-register the monitor and
   log the join view as a synthetic observation, so post-rejoin
   deliveries are attributed to the right view.  The process keeps its
   tracked record (and delivery history: exactly-once spans the
   eviction). *)
let retrack t proc =
  match find_tracked t proc with
  | None -> track t proc
  | Some tr ->
    (match Runtime.pg_view proc t.gid with
    | Some v ->
      tr.events <-
        Viewed
          {
            v_id = v.View.view_id;
            v_members = List.map Addr.proc_to_string v.View.members;
            v_failed = [];
          }
        :: tr.events
    | None -> ());
    monitor_views t tr

(* The membership view a tracked proc is currently in, {e as the proc
   itself has observed it}: the runtime's [pg_view] runs ahead of the
   user-visible event order (the view is installed at commit, while
   delivery and monitor callbacks follow one intra-site hop later, in
   the virtually synchronous order).  Positional reconstruction from the
   proc's own event log is what the VS guarantees actually speak
   about. *)
let observed_view tr =
  let rec last = function
    | Viewed { v_id; _ } :: _ -> Some v_id
    | Delivered _ :: rest -> last rest
    | [] -> tr.base_view
  in
  last tr.events

let note_send t proc ~mode ~tag =
  if Hashtbl.mem t.sends tag then
    invalid_arg (Printf.sprintf "Oracle.note_send: tag %d sent twice" tag);
  let sender = Addr.proc_to_string (Runtime.proc_addr proc) in
  let seq = Option.value ~default:0 (Hashtbl.find_opt t.send_seq sender) in
  Hashtbl.replace t.send_seq sender (seq + 1);
  let tr = find_tracked t proc in
  Hashtbl.replace t.sends tag
    {
      s_mode = mode;
      s_sender = sender;
      s_site = (Runtime.proc_addr proc).Addr.site;
      s_member = Runtime.pg_view proc t.gid <> None;
      s_seq = seq;
      s_view = Option.bind tr observed_view;
      s_deps = (match tr with Some tr -> tr.delivered_tags | None -> []);
      s_at = World.now t.world;
    }

let note_delivery t proc msg =
  match Message.get_int msg t.tag_field with
  | None -> ()
  | Some tag -> (
    match find_tracked t proc with
    | None -> ()
    | Some tr ->
      tr.events <- Delivered { tag; at = World.now t.world } :: tr.events;
      tr.delivered_tags <- tag :: tr.delivered_tags)

let bind_tap t proc entry k =
  track t proc;
  Runtime.bind proc entry (fun msg ->
      note_delivery t proc msg;
      k msg)

let pp_history ppf t =
  List.iter
    (fun tr ->
      Format.fprintf ppf "%s:@\n" tr.pname;
      (match tr.base_view with
      | Some v -> Format.fprintf ppf "  (tracked in view #%d)@\n" v
      | None -> ());
      List.iter
        (function
          | Viewed { v_id; v_members; v_failed } ->
            Format.fprintf ppf "  view #%d {%s}%s@\n" v_id (String.concat " " v_members)
              (match v_failed with [] -> "" | f -> " failed: " ^ String.concat " " f)
          | Delivered { tag; at } -> Format.fprintf ppf "  tag %d at %dus@\n" tag at)
        (List.rev tr.events))
    (List.rev t.tracked)

let n_sends t = Hashtbl.length t.sends

let n_deliveries t =
  List.fold_left (fun acc tr -> acc + List.length tr.delivered_tags) 0 t.tracked

let latencies_us t =
  List.concat_map
    (fun tr ->
      List.filter_map
        (function
          | Delivered { tag; at; _ } -> (
            match Hashtbl.find_opt t.sends tag with
            | Some s -> Some (at - s.s_at)
            | None -> None)
          | Viewed _ -> None)
        (List.rev tr.events))
    (List.rev t.tracked)

(* --- The checker --- *)

let check ?(hygiene = true) t =
  let violations = ref [] in
  let fail invariant fmt =
    Format.kasprintf (fun detail -> violations := { invariant; detail } :: !violations) fmt
  in
  let tracked = List.rev t.tracked in
  let chrono tr = List.rev tr.events in
  (* Deliveries paired with the membership view the proc had observed at
     that point of its own event log (see [observed_view]). *)
  let deliveries tr =
    let _, rev =
      List.fold_left
        (fun (cur, acc) ev ->
          match ev with
          | Delivered { tag; _ } -> (cur, (tag, cur) :: acc)
          | Viewed { v_id; _ } -> (Some v_id, acc))
        (tr.base_view, []) (chrono tr)
    in
    List.rev rev
  in
  let send_of tag = Hashtbl.find_opt t.sends tag in

  (* Current views of the live tracked procs. *)
  let live_views =
    List.filter_map
      (fun tr ->
        if Runtime.proc_alive tr.proc then
          Option.map
            (fun v -> (tr, v.View.view_id, List.map Addr.proc_to_string v.View.members))
            (Runtime.pg_view tr.proc t.gid)
        else None)
      tracked
  in

  (* 1. Final-view agreement: every live tracked proc that belongs to
     the newest view must report exactly that view.  A live proc outside
     the newest membership was evicted (e.g. a false suspicion) and
     holds a legitimately stale view; it is excluded here but still
     subject to every delivery-ordering invariant. *)
  (match live_views with
  | [] -> ()
  | (_, id0, m0) :: rest ->
    let vmax_id, vmax_members =
      List.fold_left
        (fun (bi, bm) (_, i, m) -> if i > bi then (i, m) else (bi, bm))
        (id0, m0) rest
    in
    List.iter
      (fun (tr, id, members) ->
        if List.mem tr.pname vmax_members then begin
          if id <> vmax_id then
            fail "final-view-agreement" "%s has view #%d but the newest view is #%d" tr.pname id
              vmax_id
          else if members <> vmax_members then
            fail "final-view-agreement" "%s disagrees on the membership of view #%d" tr.pname id
        end)
      live_views);

  (* 2. View consistency: a given view id names the same membership at
     every observer. *)
  let view_members : (int, string list * string) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun tr ->
      List.iter
        (function
          | Viewed { v_id; v_members; _ } -> (
            match Hashtbl.find_opt view_members v_id with
            | None -> Hashtbl.replace view_members v_id (v_members, tr.pname)
            | Some (known, who) ->
              if known <> v_members then
                fail "view-consistency" "view #%d differs between %s and %s" v_id who tr.pname)
          | Delivered _ -> ())
        (chrono tr))
    tracked;

  (* 3. No duplicate deliveries. *)
  List.iter
    (fun tr ->
      let tags = List.map fst (deliveries tr) in
      let sorted = List.sort compare tags in
      let rec dups = function
        | a :: (b :: _ as rest) -> if a = b then a :: dups rest else dups rest
        | _ -> []
      in
      List.iter
        (fun d -> fail "no-duplicate-delivery" "%s delivered tag %d more than once" tr.pname d)
        (List.sort_uniq compare (dups sorted)))
    tracked;

  (* Per-receiver tag position index, for the ordering checks. *)
  let position tr =
    let h = Hashtbl.create 64 in
    List.iteri (fun i (tag, _) -> if not (Hashtbl.mem h tag) then Hashtbl.add h tag i) (deliveries tr);
    h
  in
  let positions = List.map (fun tr -> (tr, position tr)) tracked in

  (* 4. FIFO per sender: a receiver sees any one sender's CBCASTs in
     send order.  (The guarantee is per protocol — ISIS makes no
     cross-protocol promise, and ABCAST's total order need not respect
     per-sender send order.)  Also flags deliveries the harness never
     registered. *)
  List.iter
    (fun tr ->
      let last_seq : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (tag, _) ->
          match send_of tag with
          | None -> fail "unregistered-delivery" "%s delivered tag %d that was never sent" tr.pname tag
          | Some ({ s_mode = Types.Cbcast; _ } as s) -> (
            match Hashtbl.find_opt last_seq s.s_sender with
            | Some (prev_seq, prev_tag) when s.s_seq < prev_seq ->
              fail "fifo-per-sender" "%s delivered tag %d (seq %d of %s) after tag %d (seq %d)"
                tr.pname tag s.s_seq s.s_sender prev_tag prev_seq
            | _ -> Hashtbl.replace last_seq s.s_sender (s.s_seq, tag))
          | Some _ -> ())
        (deliveries tr))
    tracked;

  (* 5. Causal order: every CBCAST the sender had already delivered
     when it sent CBCAST [b] precedes [b] wherever both are delivered.
     Restricted to CBCAST-CBCAST pairs: that is the documented causal
     domain (ABCAST/GBCAST have their own ordering checked above). *)
  let is_cbcast tag =
    match send_of tag with Some { s_mode = Types.Cbcast; _ } -> true | Some _ | None -> false
  in
  List.iter
    (fun (tr, pos) ->
      List.iter
        (fun (b, _) ->
          match send_of b with
          | Some ({ s_mode = Types.Cbcast; _ } as s) ->
            let b_pos = Hashtbl.find pos b in
            List.iter
              (fun a ->
                if is_cbcast a then
                  match Hashtbl.find_opt pos a with
                  | Some a_pos when a_pos > b_pos ->
                    fail "causal-order" "%s delivered tag %d before its causal predecessor %d"
                      tr.pname b a
                  | Some _ | None -> ())
              s.s_deps
          | Some _ | None -> ())
        (deliveries tr))
    positions;

  (* 6. Total order: ABCAST/GBCAST tags delivered by two receivers
     appear in the same relative order at both. *)
  let total_seq tr =
    List.filter_map
      (fun (tag, _) ->
        match send_of tag with
        | Some { s_mode = Types.Abcast | Types.Gbcast; _ } -> Some tag
        | Some _ | None -> None)
      (deliveries tr)
  in
  let rec pairs = function [] -> [] | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest in
  List.iter
    (fun (a, b) ->
      let sa = total_seq a and sb = total_seq b in
      let common_a = List.filter (fun x -> List.mem x sb) sa in
      let common_b = List.filter (fun x -> List.mem x sa) sb in
      if common_a <> common_b then begin
        let mode_of tag =
          match send_of tag with
          | Some { s_mode = Types.Abcast; _ } -> "abcast"
          | Some { s_mode = Types.Gbcast; _ } -> "gbcast"
          | Some { s_mode = Types.Cbcast; _ } -> "cbcast"
          | None -> "?"
        in
        let rec first_diff = function
          | x :: xs, y :: ys -> if x = y then first_diff (xs, ys) else Some (x, y)
          | x :: _, [] -> Some (x, -1)
          | [], y :: _ -> Some (-1, y)
          | [], [] -> None
        in
        match first_diff (common_a, common_b) with
        | Some (x, y) ->
          fail "total-order" "%s and %s diverge on ABCAST/GBCAST order: %s has tag %d (%s), %s has tag %d (%s)"
            a.pname b.pname a.pname x (mode_of x) b.pname y (mode_of y)
        | None ->
          fail "total-order" "%s and %s deliver common ABCAST/GBCAST tags in different orders"
            a.pname b.pname
      end)
    (pairs tracked);

  (* 7. Same delivery view: a message is delivered in one view
     everywhere, and never in a view older than the one it was sent
     in.

     One principled exception: a GBCAST committed by the very view
     change that admits a joiner is delivered {e at the synchronization
     point} — members of the retiring view observe it just before the
     new view, while the joiner observes it as the first event of its
     join view.  Same point in the virtually synchronous order, two
     view labels; the joiner's observation is exempted. *)
  let is_gbcast tag =
    match send_of tag with Some { s_mode = Types.Gbcast; _ } -> true | Some _ | None -> false
  in
  (* [w] delivered [tag] at the synchronization point that admitted it:
     it was tracked in view [v] and delivered [tag] before observing any
     view event of its own. *)
  let sync_join_delivery w tag v =
    is_gbcast tag
    && List.exists
         (fun tr ->
           tr.pname = w
           && tr.base_view = Some v
           &&
           let rec leading = function
             | Delivered { tag = t'; _ } :: rest -> t' = tag || leading rest
             | Viewed _ :: _ | [] -> false
           in
           leading (List.rev tr.events))
         tracked
  in
  let delivery_views : (int, (string * int) list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun tr ->
      List.iter
        (fun (tag, view) ->
          match view with
          | None -> ()
          | Some v ->
            Hashtbl.replace delivery_views tag
              ((tr.pname, v) :: Option.value ~default:[] (Hashtbl.find_opt delivery_views tag)))
        (deliveries tr))
    tracked;
  let sorted_tags h = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) h []) in
  List.iter
    (fun tag ->
      match Hashtbl.find_opt delivery_views tag with
      | None | Some [] -> ()
      | Some all ->
        (match List.filter (fun (w, v) -> not (sync_join_delivery w tag v)) all with
        | [] -> ()
        | (w0, v0) :: rest ->
          List.iter
            (fun (w, v) ->
              if v <> v0 then
                fail "same-delivery-view" "tag %d delivered in view #%d at %s but #%d at %s" tag
                  v0 w0 v w)
            rest);
        (match send_of tag with
        | Some { s_view = Some sv; _ } ->
          List.iter
            (fun (w, v) ->
              if v < sv then
                fail "delivery-in-sending-view" "tag %d sent in view #%d but delivered in #%d at %s"
                  tag sv v w)
            all
        | Some _ | None -> ()))
    (sorted_tags delivery_views);

  (* 8. Atomicity: if a message was delivered in view v by a process
     that survived v, every tracked member of v that also survived v
     delivered it too.  A message delivered {e only} by processes that
     then failed inside v carries no obligation: the canonical case is a
     CBCAST sender's immediate self-delivery where the sender crashes
     before the message leaves the site — the flush forgets it, exactly
     as the paper allows. *)
  (* Newest membership view any live tracked proc has observed.  (Not
     [pg_view]: commits that carry only user GBCASTs advance the runtime
     view id without a membership change, so runtime ids and observed
     membership ids live on different scales.) *)
  let newest_view_id =
    List.fold_left
      (fun acc tr ->
        if Runtime.proc_alive tr.proc then
          match observed_view tr with Some v -> max acc v | None -> acc
        else acc)
      min_int tracked
  in
  (* [survived_view tr v]: tr demonstrably outlived view v {e as a
     member} — it observed a later view (or v is the newest view and tr
     is alive in it), and the next membership change after v kept it.  A
     process the next view removed — failed, left, or evicted on the
     losing side of a partition — carries no delivery obligation for v,
     even if it later rejoins and observes newer views. *)
  let next_membership v =
    Hashtbl.fold
      (fun id (members, _) acc ->
        if id > v then
          match acc with Some (bid, _) when bid < id -> acc | _ -> Some (id, members)
        else acc)
      view_members None
  in
  let survived_view tr v =
    (List.exists (function Viewed { v_id; _ } -> v_id > v | Delivered _ -> false) tr.events
    || (v = newest_view_id && Runtime.proc_alive tr.proc && observed_view tr = Some v))
    && match next_membership v with
       | Some (_, members) -> List.mem tr.pname members
       | None -> true
  in
  List.iter
    (fun tag ->
      match Hashtbl.find_opt delivery_views tag with
      | None | Some [] -> ()
      | Some ((_, v) :: _ as all) -> (
        match Hashtbl.find_opt view_members v with
        | None -> ()
        | Some (members, _) ->
          let surviving_deliverer =
            List.exists
              (fun (pname, _) ->
                match List.find_opt (fun tr -> tr.pname = pname) tracked with
                | Some tr -> survived_view tr v
                | None -> false)
              all
          in
          if surviving_deliverer then
            List.iter
              (fun tr ->
                if
                  List.mem tr.pname members
                  && (not (List.mem tag tr.delivered_tags))
                  && survived_view tr v
                then
                  fail "atomicity" "%s was a member of view #%d and survived it but missed tag %d"
                    tr.pname v tag)
              tracked))
    (sorted_tags delivery_views);

  (* 9. No delivery after an observed failure: once a receiver saw the
     sender fail through a view change, nothing more from that sender
     (that incarnation) may arrive. *)
  List.iter
    (fun tr ->
      let failed = Hashtbl.create 8 in
      List.iter
        (function
          | Viewed { v_members; v_failed; _ } ->
            List.iter (fun p -> Hashtbl.replace failed p ()) v_failed;
            (* A failed process reappearing in a later membership
               rejoined as a fresh member: its new sends are
               legitimate. *)
            List.iter (fun p -> Hashtbl.remove failed p) v_members
          | Delivered { tag; _ } -> (
            match send_of tag with
            (* Client sends are exempt: an evicted process whose group
               copy was torn down keeps multicasting through the relay
               path as an ordinary non-member client, which ISIS
               permits — the failure the receiver observed retired its
               membership, not its right to talk to the group. *)
            | Some s when s.s_member && Hashtbl.mem failed s.s_sender ->
              fail "no-delivery-after-failure"
                "%s delivered tag %d from %s after observing its failure" tr.pname tag s.s_sender
            | Some _ | None -> ()))
        (chrono tr))
    tracked;

  (* 10. Quiescent hygiene: protocol state has drained at every site
     that is in the final membership.  A live site whose members were
     evicted (e.g. it sat on the losing side of a partition and was
     flushed out) never learns of the eviction — it stalls holding its
     old-view state, which is exactly the paper's "ISIS blocks the
     minority" semantics, not a leak — so it is exempt. *)
  if hygiene then begin
    let final_sites =
      List.fold_left
        (fun ((best_id, _) as acc) tr ->
          if Runtime.proc_alive tr.proc then
            match Runtime.pg_view tr.proc t.gid with
            | Some v when v.View.view_id > best_id -> (v.View.view_id, View.sites v)
            | Some _ | None -> acc
          else acc)
        (min_int, []) tracked
      |> snd
    in
    List.iter
      (fun s ->
        let rt = World.runtime t.world s in
        if Runtime.alive rt then begin
          (* Sampled through the metrics registry rather than ad-hoc
             accessors, so the sweep also validates that the gauges the
             dashboards read are wired to live state. *)
          let m = Runtime.metrics rt in
          let gauge name =
            match Metrics.read_int m name with
            | None -> fail "hygiene-quiescence" "site %d: gauge %s is not registered" s name
            | Some v -> if v <> 0 then fail "hygiene-quiescence" "site %d: %s = %d" s name v
          in
          gauge "runtime.pending_unstable";
          gauge "runtime.held_frames";
          gauge "runtime.sessions";
          (* Stability-driven GC: once everything stabilized, the
             retransmission store is empty and every dedup record is
             covered by a watermark (a nonzero residue means a GC
             path was missed and state would accrete forever). *)
          gauge "runtime.pending_store";
          gauge "runtime.dedup_residue";
          (* Flow control: at quiescence no round is queued or in
             flight and no frame is staged for coalescing — a nonzero
             reading means admission leaked.  The credit gauges
             ([transport.credit_waiting] / [credit_used_bytes]) mirror
             the unacked window and are exempt for the same reason
             [transport.inflight] is: frames toward a site that died
             sit in the window until the retransmit budget exhausts,
             which can outlast any settle period.  Their drain on
             clean runs is pinned by the flow-control tests. *)
          gauge "runtime.ab_queue";
          gauge "runtime.ab_inflight";
          gauge "transport.sendq_depth"
        end)
      (List.sort_uniq compare final_sites)
  end;

  (* 11. Typed event stream (populated only when tracing is enabled;
     vacuous otherwise): the runtime must never hand the same uid to a
     site's delivery queue twice, and a site may only report a uid
     stable if that site actually delivered it. *)
  Hashtbl.fold (fun k n acc -> if n > 1 then (k, n) :: acc else acc) t.obs_deliveries []
  |> List.sort compare
  |> List.iter (fun ((site, usite, useq), n) ->
         fail "obs-duplicate-delivery" "site %d delivered uid %d.%d %d times (typed stream)" site
           usite useq n);
  Hashtbl.fold (fun k () acc -> k :: acc) t.obs_stabilized []
  |> List.sort compare
  |> List.iter (fun ((site, usite, useq) as k) ->
         (* At the origin site the Stabilize event is sender-side
            bookkeeping — "every remote destination acked" — not a
            delivery claim: an origin whose own delivery was still in
            the causal buffer when a partition evicted it never
            delivers, legally.  Hold every non-origin site to the
            strict reading. *)
         if site <> usite && not (Hashtbl.mem t.obs_deliveries k) then
           fail "obs-stability-without-delivery"
             "site %d marked uid %d.%d stable without delivering it (typed stream)" site usite useq);

  (* 12. No split brain: a given (group, view id) is installed with one
     membership — same size, same member hash — at every site that
     installs it.  Two components each believing they hold view [v]
     with different memberships is exactly the split-brain the
     primary-partition rule forbids.  Collected from the typed event
     stream; vacuous when tracing is off. *)
  Hashtbl.fold (fun k vs acc -> (k, vs) :: acc) t.obs_views []
  |> List.sort compare
  |> List.iter (fun ((group, view_id), installs) ->
         match List.rev installs with
         | [] | [ _ ] -> ()
         | (s0, n0, h0) :: rest ->
           List.iter
             (fun (s, n, h) ->
               if n <> n0 || h <> h0 then
                 fail "no-split-brain"
                   "group %d view #%d installed with different memberships at site %d and site %d \
                    (split brain)"
                   group view_id s0 s)
             rest);

  (* 13. Primary-partition progress: during a vouched-for full split
     (see [note_partition]) the side holding a strict majority of the
     sites retains the primary partition, so its members' sends must
     still be delivered by the time the run quiesces.  A send that
     vanishes means the majority wedged — the availability half of the
     primary-partition rule.  One exemption: a sender that was itself
     evicted from the group at some later view change (e.g. a post-heal
     loss window got it suspected) loses its still-buffered sends with
     the partition teardown, which is the documented Buffer-policy
     contract, not a wedge.  A genuinely wedged majority installs no
     views at all, so no eviction is ever observed and the check still
     fires. *)
  let evicted_senders =
    List.concat_map
      (fun tr ->
        List.concat_map (function Viewed v -> v.v_failed | Delivered _ -> []) tr.events)
      tracked
  in
  List.iter
    (fun pn ->
      let total = List.length pn.p_left + List.length pn.p_right in
      let maj =
        if List.length pn.p_left > List.length pn.p_right then pn.p_left else pn.p_right
      in
      if 2 * List.length maj > total then
        Hashtbl.fold (fun tag s acc -> (tag, s) :: acc) t.sends []
        |> List.sort compare
        |> List.iter (fun (tag, s) ->
               if
                 s.s_at >= pn.p_from && s.s_at < pn.p_until
                 && List.mem s.s_site maj
                 && (not (List.exists (fun tr -> List.mem tag tr.delivered_tags) tracked))
                 && not (List.mem s.s_sender evicted_senders)
               then
                 fail "primary-partition-progress"
                   "tag %d sent from majority site %d during the split at %dus was never delivered"
                   tag s.s_site s.s_at))
    (List.rev t.partitions);

  List.rev !violations

let report t violations =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "oracle: %d sends, %d deliveries across %d tracked processes\n" (n_sends t)
       (n_deliveries t) (List.length t.tracked));
  (match violations with
  | [] -> Buffer.add_string b "oracle verdict: PASS (all virtual synchrony invariants hold)\n"
  | vs ->
    Buffer.add_string b (Printf.sprintf "oracle verdict: FAIL (%d violations)\n" (List.length vs));
    List.iter (fun v -> Buffer.add_string b (Format.asprintf "  %a\n" pp_violation v)) vs);
  Buffer.contents b

let history_digest t = Digest.to_hex (Digest.string (Format.asprintf "%a" pp_history t))
