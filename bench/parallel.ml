(* Domain-parallel harness: the execution-backend tentpole's proof.

   Three measurements over the standard seeded nemesis scenario
   ([Scenario.run], the same harness behind the fuzz sweep):

   1. Sweep scaling: N seeds run to completion at 1 / 2 / 4 / 8 domains
      (--jobs widens the ladder past 8); wall-clock time and speedup
      per point.  Seeds are picked up by an atomic cursor, so domains
      self-balance across uneven nemesis schedules.

   2. Determinism under parallelism: every parallel point's per-seed
      oracle-history digests must equal the sequential baseline's,
      bit for bit.  This is the load-bearing claim — parallelism that
      perturbed a single delivery would show here.

   3. Multi-seed oracle soak: a second batch of fresh seeds at the
      widest point, demanding a clean oracle verdict from every one —
      the parallel harness as a correctness amplifier, not just a
      speedup.

   Speedup scales with physical cores; the artifact records
   [Domain.recommended_domain_count] so a reader can judge the numbers
   against the machine that produced them (on a 1-core CI box the
   sweep measures overhead, not speedup).

     dune exec bench/main.exe -- parallel
     dune exec bench/main.exe -- --smoke --jobs 8 --json BENCH_parallel.json parallel *)

open Vsync_core
module Pool = Vsync_parallel.Pool
module Metrics = Vsync_obs.Metrics

type point = {
  pt_jobs : int;
  pt_wall_s : float;
  pt_speedup : float;
  pt_digests_match : bool;
}

(* Snapshots are taken on the domain that owns the world (gauges sample
   live closures); only the plain data crosses back to the joiner,
   where [Metrics.merge_snapshots] folds all sites of all seeds into
   one sweep-wide registry view. *)
let world_snapshot w =
  Metrics.merge_snapshots
    (List.init (World.n_sites w) (fun s -> Metrics.snapshot (Runtime.metrics (World.runtime w s))))

let run_seed seed =
  match Scenario.run ~seed ~intensity:0.5 () with
  | Ok r ->
    ( Oracle.history_digest r.Scenario.oracle,
      List.length r.Scenario.violations,
      r.Scenario.sent,
      r.Scenario.delivered,
      world_snapshot r.Scenario.world )
  | Error e -> failwith (Printf.sprintf "parallel bench: seed %Ld setup failed: %s" seed e)

let sweep ~jobs seeds =
  let t0 = Unix.gettimeofday () in
  let out = Pool.map ~jobs run_seed seeds in
  (out, Unix.gettimeofday () -. t0)

let run () =
  if !Harness.trace_out <> None then
    failwith "parallel bench: --trace-out is not domain-safe; drop one of the two";
  let n_seeds = if !Harness.smoke then 10 else 50 in
  let seeds = Array.init n_seeds (fun i -> Int64.of_int (9001 + i)) in
  let cores = Pool.available_cores () in
  let ladder =
    if !Harness.jobs > 8 then [ 1; 2; 4; 8; !Harness.jobs ] else [ 1; 2; 4; 8 ]
  in
  let widest = List.fold_left max 1 ladder in
  Printf.printf "parallel: %d seeds, %d recommended domains on this machine\n%!" n_seeds cores;

  let baseline, base_wall = sweep ~jobs:1 seeds in
  Printf.printf "parallel: sequential baseline %.2fs\n%!" base_wall;
  let points =
    List.map
      (fun jobs ->
        if jobs = 1 then
          { pt_jobs = 1; pt_wall_s = base_wall; pt_speedup = 1.0; pt_digests_match = true }
        else begin
          let out, wall = sweep ~jobs seeds in
          let matches =
            Array.for_all2
              (fun (d, _, _, _, _) (d', _, _, _, _) -> String.equal d d')
              baseline out
          in
          Printf.printf "parallel: %d domains %.2fs (%.2fx) digests %s\n%!" jobs wall
            (base_wall /. wall)
            (if matches then "identical" else "DIVERGED");
          { pt_jobs = jobs; pt_wall_s = wall; pt_speedup = base_wall /. wall;
            pt_digests_match = matches }
        end)
      ladder
  in

  (* Oracle soak: fresh seeds, widest point, all must be clean. *)
  let soak_seeds = Array.init n_seeds (fun i -> Int64.of_int (77_000 + i)) in
  let soak_out, soak_wall = sweep ~jobs:widest soak_seeds in
  let soak_failures =
    Array.to_list soak_out |> List.filter (fun (_, violations, _, _, _) -> violations > 0)
  in
  Printf.printf "parallel: oracle soak %d fresh seeds in %.2fs: %d violation(s)\n%!"
    (Array.length soak_seeds) soak_wall (List.length soak_failures);

  (* Sweep-wide metrics: per-domain registry snapshots merged at join. *)
  let merged =
    Metrics.merge_snapshots
      (Array.to_list soak_out |> List.map (fun (_, _, _, _, snap) -> snap))
  in
  let merged_int name =
    match List.assoc_opt name merged with
    | Some (Metrics.Counter_v n) | Some (Metrics.Gauge_v n) -> n
    | Some (Metrics.Histo_v { count; _ }) -> count
    | None -> 0
  in
  Printf.printf
    "parallel: merged soak metrics: %d names; %d data frames in %d packets, dedup residue %d\n"
    (List.length merged)
    (merged_int "transport.data_frames")
    (merged_int "transport.packets")
    (merged_int "runtime.dedup_residue");

  Harness.print_table
    ~title:(Printf.sprintf "parallel sweep: %d nemesis seeds per point" n_seeds)
    ~header:[ "domains"; "wall s"; "speedup"; "digests vs sequential" ]
    (List.map
       (fun p ->
         [
           string_of_int p.pt_jobs;
           Printf.sprintf "%.2f" p.pt_wall_s;
           Printf.sprintf "%.2fx" p.pt_speedup;
           (if p.pt_digests_match then "identical" else "DIVERGED");
         ])
       points);
  let all_match = List.for_all (fun p -> p.pt_digests_match) points in
  let soak_ok = soak_failures = [] in
  Printf.printf "determinism: per-seed digests %s across every point\n"
    (if all_match then "identical (PASS)" else "DIVERGED (FAIL)");
  Printf.printf "oracle soak: %s\n" (if soak_ok then "all seeds clean (PASS)" else "FAIL");

  (match !Harness.json_path with
  | None -> ()
  | Some path ->
    let module J = Harness.Json in
    Harness.write_json path
      (J.Obj
         [
           ("bench", J.Str "parallel");
           ("smoke", J.Bool !Harness.smoke);
           ("seeds", J.Int n_seeds);
           ("recommended_domains", J.Int cores);
           ( "points",
             J.List
               (List.map
                  (fun p ->
                    J.Obj
                      [
                        ("jobs", J.Int p.pt_jobs);
                        ("wall_s", J.Float p.pt_wall_s);
                        ("speedup", J.Float p.pt_speedup);
                        ("digests_match", J.Bool p.pt_digests_match);
                      ])
                  points) );
           ( "oracle_soak",
             J.Obj
               [
                 ("seeds", J.Int (Array.length soak_seeds));
                 ("jobs", J.Int widest);
                 ("wall_s", J.Float soak_wall);
                 ("clean", J.Bool soak_ok);
                 ( "merged_metrics",
                   J.Obj
                     [
                       ("names", J.Int (List.length merged));
                       ("transport.data_frames", J.Int (merged_int "transport.data_frames"));
                       ("transport.packets", J.Int (merged_int "transport.packets"));
                       ("runtime.dedup_residue", J.Int (merged_int "runtime.dedup_residue"));
                     ] );
               ] );
           ( "acceptance",
             J.Obj [ ("digests_identical", J.Bool all_match); ("soak_clean", J.Bool soak_ok) ] );
         ]);
    Printf.printf "parallel: JSON written to %s\n" path);
  Harness.exit_unless (all_match && soak_ok)
