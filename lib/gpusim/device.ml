type report = {
  cfg : Config.t;
  grid : int;
  block : int;
  time_cycles : float;
  breakdown : Occupancy.breakdown;
  counters : Counters.t;
  block_costs : Occupancy.block_cost array;
  sanitizer : Ompsan.report option;
  failures : Fault.failure list;
  faults : Fault.stats;
}

(* A failed block contributes nothing to the epilogue: no L2 commit, no
   counters, a zero cost entry.  Its failure record is the report. *)
type sim_result =
  | B_ok of
      Occupancy.block_cost
      * Counters.t
      * Thread.mem_session
      * Ompsan.block_report option
      * Fault.events
  | B_failed of Fault.failure * Fault.events

(* One block's simulation in its own memory session, so its L2 traffic
   is order-independent (see Memory).  Runs on whichever domain the pool
   hands the index to; everything it touches is block-local, and the
   session, fault draws and shadow state ride on its warps.  On the
   exception path the shadow findings go to the run's collector (a
   divergent kernel deadlocks before the epilogue runs).

   Failure capture: an injected fatal fault (Fault.Fatal) always yields
   a failed block.  A deadlock — injected stall or genuine divergence —
   yields one only when capture is armed (fault plan set, or a watchdog
   budget); otherwise it re-raises, preserving the historical
   Engine.Deadlock contract for unarmed callers. *)
let simulate_block ~cfg ~(run : Run.t) ~locked ~nonce ?trace ~block ~init
    ~body block_id =
  let msession = Memory.session ~locked in
  let ws = cfg.Config.warp_size in
  let fault =
    match run.Run.faults with
    | Some plan ->
        Fault.block_begin plan ~nonce ~block_id ~num_threads:block ~warp_size:ws
    | None -> Thread.No_faults
  in
  let san =
    if run.Run.sanitize then
      Ompsan.block_begin ~block_id ~num_threads:block ~warp_size:ws
    else Thread.No_san
  in
  let abort () =
    Ompsan.block_abort run.Run.aborted san;
    Fault.block_end fault
  in
  match
    let arena = Shared.arena cfg in
    let state = init ~block_id arena in
    let result =
      Engine.run_block ~cfg ?trace ~msession ~fault ~san ~block_id
        ~num_threads:block (fun th -> body state th)
    in
    (* A software-barrier device pays shared-memory residency for its
       per-block flag arrays on top of whatever the kernel allocated. *)
    (Occupancy.of_result result
       ~smem_bytes:
         (Shared.high_water arena
         + Config.sw_barrier_smem_bytes cfg ~threads:block),
     result.Engine.counters)
  with
  | exception Fault.Fatal f -> B_failed (f, abort ())
  | exception Engine.Deadlock _ when Run.capture_deadlocks run ->
      let stall = Engine.take_stall () in
      let ev = abort () in
      let f =
        match ev.Fault.ev_stall with
        | Some f -> f  (* the injected stall that caused this deadlock *)
        | None ->
            (* genuine divergence, reported by the watchdog *)
            let barrier, cycle =
              match stall with
              | None -> ("", 0.0)
              | Some si ->
                  ( String.concat "+"
                      (List.map
                         (fun (s : Engine.stuck) ->
                           Printf.sprintf "%s(%d/%d)" s.Engine.stuck_name
                             s.Engine.stuck_waiting s.Engine.stuck_expected)
                         si.Engine.stall_stuck),
                    si.Engine.stall_cycle )
            in
            {
              Fault.f_kind = Fault.Barrier_stall;
              f_block = block_id;
              f_warp = -1;
              f_tid = -1;
              f_barrier = barrier;
              f_cycle = cycle;
            }
      in
      B_failed (f, ev)
  | exception e ->
      ignore (abort () : Fault.events);
      raise e
  | cost, counters ->
      B_ok (cost, counters, msession, Ompsan.block_end san, Fault.block_end fault)

let launch ~cfg ?(run = Run.default) ?trace ?block_class ~grid ~block ~init
    ~body () =
  if grid <= 0 then invalid_arg "Device.launch: grid must be positive";
  if block <= 0 then invalid_arg "Device.launch: block must be positive";
  if block > cfg.Config.max_threads_per_block then
    invalid_arg "Device.launch: block exceeds device limit";
  (* every block of the launch draws its faults at the same nonce *)
  let nonce = if Run.armed run then Run.next_nonce run else 0 in
  let tracing = Option.is_some trace in
  (* Tracing forces the full sequential path: Trace.t is one shared
     mutable log, and a deduplicated trace would misrepresent the grid. *)
  let class_of =
    match block_class with Some f when not tracing -> f | _ -> fun b -> b
  in
  (* Representative of each equivalence class = its lowest block_id. *)
  let rep_index = Hashtbl.create 16 in
  let rep_of = Array.make grid 0 in
  let rev_reps = ref [] in
  let nreps = ref 0 in
  for b = 0 to grid - 1 do
    let key = class_of b in
    match Hashtbl.find_opt rep_index key with
    | Some ri -> rep_of.(b) <- ri
    | None ->
        Hashtbl.add rep_index key !nreps;
        rep_of.(b) <- !nreps;
        rev_reps := b :: !rev_reps;
        incr nreps
  done;
  let reps = Array.of_list (List.rev !rev_reps) in
  let pool =
    match run.Run.pool with
    | Some p when not tracing && Pool.size p > 0 -> Some p
    | _ -> None
  in
  (* only a multi-domain block phase needs the host lock on atomics *)
  let simulate =
    simulate_block ~cfg ~run ~locked:(Option.is_some pool) ~nonce ?trace
      ~block ~init ~body
  in
  let results =
    match pool with
    | Some p ->
        Pool.parallel_init p (Array.length reps) (fun i -> simulate reps.(i))
    | None -> Array.init (Array.length reps) (fun i -> simulate reps.(i))
  in
  (* Deterministic epilogue, in ascending block_id order regardless of
     which domain simulated what: commit the per-block L2 logs, then
     merge counters (float sums are order-sensitive, so the order is part
     of the determinism contract).  A class's counters are merged once
     per member block, which keeps the merged report bit-identical to a
     full simulation of a truly homogeneous grid.  Failed blocks commit
     and merge nothing — an aborted block's partial traffic must not
     perturb the survivors' timing. *)
  Array.iter
    (function
      | B_ok (_, _, session, _, _) -> Memory.session_commit session
      | B_failed _ -> ())
    results;
  let merged = Counters.create () in
  for b = 0 to grid - 1 do
    match results.(rep_of.(b)) with
    | B_ok (_, counters, _, _, _) -> Counters.merge_into ~dst:merged counters
    | B_failed _ -> ()
  done;
  let zero_cost =
    {
      Occupancy.critical = 0.0;
      busy = 0.0;
      dram_bytes = 0.0;
      lsu_transactions = 0.0;
      active_lanes = 0;
      threads = block;
      smem_bytes = 0;
    }
  in
  let block_costs =
    Array.init grid (fun b ->
        match results.(rep_of.(b)) with
        | B_ok (cost, _, _, _, _) -> cost
        | B_failed _ -> zero_cost)
  in
  (* Sanitizer composition follows the same determinism recipe as the
     counters: per-block findings in ascending block_id, then the
     cross-block pass over per-cell summaries (per class member, so a
     deduplicated homogeneous grid still self-detects fixed-cell
     writes). *)
  let sanitizer =
    if not run.Run.sanitize then None
    else
      Some
        (Ompsan.launch_report
           (Array.init grid (fun b ->
                match results.(rep_of.(b)) with
                | B_ok (_, _, _, san, _) -> san
                | B_failed _ -> None)))
  in
  (* Failures and fault statistics, once per representative in ascending
     block order (with dedup a class fails as one unit — faults are
     drawn per representative).  The watchdog check runs here: a block
     whose critical path exceeds the budget completed, but is reported
     hung. *)
  let wd = run.Run.watchdog in
  let rev_failures = ref [] in
  let stats = ref Fault.zero_stats in
  Array.iteri
    (fun i result ->
      match result with
      | B_failed (f, ev) ->
          rev_failures := f :: !rev_failures;
          stats :=
            Fault.add_stats !stats
              {
                Fault.zero_stats with
                Fault.corrected = ev.Fault.ev_corrected;
                exhausts = ev.Fault.ev_exhausts;
                fatal =
                  (match f.Fault.f_kind with
                  | Fault.Block_abort | Fault.Ecc_fatal -> 1
                  | _ -> 0);
                stalls =
                  (match f.Fault.f_kind with Fault.Barrier_stall -> 1 | _ -> 0);
              }
      | B_ok (cost, _, _, _, ev) ->
          stats :=
            Fault.add_stats !stats
              {
                Fault.zero_stats with
                Fault.corrected = ev.Fault.ev_corrected;
                exhausts = ev.Fault.ev_exhausts;
              };
          if wd > 0.0 && cost.Occupancy.critical > wd then begin
            rev_failures :=
              {
                Fault.f_kind = Fault.Watchdog;
                f_block = reps.(i);
                f_warp = -1;
                f_tid = -1;
                f_barrier = "";
                f_cycle = cost.Occupancy.critical;
              }
              :: !rev_failures;
            stats :=
              Fault.add_stats !stats { Fault.zero_stats with Fault.watchdogs = 1 }
          end)
    results;
  let failures = List.rev !rev_failures in
  let breakdown = Occupancy.kernel_time cfg block_costs in
  {
    cfg;
    grid;
    block;
    time_cycles = breakdown.Occupancy.time;
    breakdown;
    counters = merged;
    block_costs;
    sanitizer;
    failures;
    faults = !stats;
  }

let pp_report ppf r =
  let b = r.breakdown in
  Format.fprintf ppf
    "@[<v>kernel on %s: grid=%d block=%d time=%.0f cycles@ bounds: \
     compute=%.0f memory=%.0f lsu=%.0f latency=%.0f resident=%d waves=%d@ %a"
    r.cfg.Config.name r.grid r.block r.time_cycles b.Occupancy.compute_bound
    b.Occupancy.memory_bound b.Occupancy.lsu_bound b.Occupancy.latency_bound
    b.Occupancy.resident_blocks b.Occupancy.num_waves Counters.pp r.counters;
  (* only when the runtime used the sharing space: kernels that never
     acquire keep their report text unchanged *)
  let grants = Counters.get_extra r.counters "sharing.shared_grants" in
  let fallbacks = Counters.get_extra r.counters "sharing.global_fallbacks" in
  let reuses = Counters.get_extra r.counters "sharing.pool_reuses" in
  if grants <> 0.0 || fallbacks <> 0.0 then
    Format.fprintf ppf
      "@ sharing: shared_grants=%.0f global_fallbacks=%.0f pool_reuses=%.0f"
      grants fallbacks reuses;
  (match r.sanitizer with
  | None -> ()
  | Some san when Ompsan.is_clean san ->
      Format.fprintf ppf "@ sanitizer: clean"
  | Some san ->
      List.iter
        (fun line -> Format.fprintf ppf "@ sanitizer: %s" line)
        (Ompsan.report_strings san));
  (* only with something to say: an unarmed launch's report text stays
     byte-identical to a build without the fault layer *)
  if r.failures <> [] || r.faults <> Fault.zero_stats then begin
    Format.fprintf ppf
      "@ faults: corrected=%d fatal=%d stalls=%d exhausts=%d watchdogs=%d"
      r.faults.Fault.corrected r.faults.Fault.fatal r.faults.Fault.stalls
      r.faults.Fault.exhausts r.faults.Fault.watchdogs;
    List.iter
      (fun f ->
        Format.fprintf ppf "@ failure: %s" (Fault.failure_to_string f))
      r.failures
  end;
  Format.fprintf ppf "@]"
