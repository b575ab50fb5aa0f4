(* The serve engine: N virtual devices behind one admission plane.

   This is the only event loop in the service: one global discrete-event
   heap in virtual time drives every shard, and the classic {!Scheduler}
   is this loop with one shard and every fleet feature off.  Each
   decision has its own module, and the loop only sequences them:

   - {!Placement}: where an arrival lands (content ring, device-group
     sub-rings, geometry fit, min-cost affinity with decay) and the
     shards' member labels;
   - {!Admission}: a shard's queue — dispatch order, pass-through,
     expiry, batch mates, weighted-fair eviction, SLO over-share;
   - {!Breaker}: a shard's per-key closed/open/probing breakers;
   - {!Batch}: the merged-grid launch — compile charge, content memo,
     pinned fault nonces, per-member split reports;
   - {!Telemetry} and {!Autoscale}: the windowed stream and the
     control loop evaluated on its window boundaries.

   The loop adds work stealing (an idle shard pulls the best request
   from the deepest queue of its own device group, ties to the lowest
   shard id; stolen requests run solo), retry with exponential backoff
   for admission losses and device failures, and the end-of-run fold of
   the terminal reports into {!Metrics}.  Every decision is a pure
   function of the trace, the config and the fault plan, so a replay is
   byte-identical across engines, pool widths and device shuffles. *)

module Counters = Gpusim.Counters

type config = {
  base : Service.config;
      (* per-shard queue bound / servers / retries / backoff / breaker,
         plus the device, the fleet-wide compile-cache capacity and the
         compile knobs *)
  shards : int;
  batch : int;  (* max members per merged grid; 1 disables batching *)
  steal : bool;
  memo : bool;  (* content-memoize idempotent launches (disarmed runs only) *)
  tenants : (string * int) list;  (* fair-admission weights; absent = 1 *)
  devices : Gpusim.Config.t list;
      (* per-shard device configs, cycled across shard ids; [] means
         every shard runs the base device (the pre-zoo fleet) *)
  affinity : bool;  (* content->config affinity placement (hetero only) *)
  telemetry : bool;  (* collect the windowed JSONL telemetry stream *)
  shed : bool;  (* SLO-aware admission shedding (armed when base.slo is set) *)
  autoscale : Autoscale.config;  (* window-boundary concurrency control *)
  decay : int;  (* affinity cost-table horizon in windows; 0 = forever *)
}

let weight_of conf tenant =
  match List.assoc_opt tenant conf.tenants with
  | Some w -> max 1 w
  | None -> 1

let make_ring = Placement.make_ring
let place = Placement.place
let content_key = Batch.content_key

type rq_report = {
  spec : Request.spec;
  shard : int;  (* where the terminal event happened *)
  outcome : Service.outcome;
  attempts : int;
  launches : int;
  batched : int;  (* members of its terminal merged grid; 0 = never ran *)
  stolen : bool;
  start : float;
  finish : float;
  latency : float;
  compile_ticks : float;
  exec_ticks : float;
  cache : Service.cache_status;
  checksum : float;
  counters : Counters.t;  (* its own split of the merged report; zeros if never ran *)
}

type fleet_stats = {
  batches : int;
  batched_requests : int;
  steals : int;
  tenant_evictions : int;
  memo_hits : int;
  affinity_moves : int;
      (* first arrivals the device-affinity (or a device= pin) routed
         off the plain content ring; 0 on homogeneous fleets *)
}

type result = {
  reports : rq_report list;
  metrics : Metrics.t;
  shard_stats : Metrics.shard_stats list;
  tenant_stats : Metrics.tenant_stats list;
  fleet : fleet_stats;
  telemetry : string;  (* the windowed JSONL stream; "" unless collected *)
}

(* [Submit] is a request's first arrival, before its keys exist: they
   are built when it is processed, and an IR built for them rides in the
   pending record only until that request's first dispatch. *)
type event =
  | Submit of Request.spec
  | Arrive of Admission.pending
  | Relaunch of int * Admission.pending
  | Finish of int * float * Batch.launch  (* shard, start, launch *)

type shard_state = {
  sid : int;
  queue : Admission.t;
  breakers : Breaker.t;
  mutable conc : int;  (* concurrency target: servers + autoscaled extra *)
  mutable busy : int;  (* executors occupied; dispatch while busy < conc *)
  mutable s_placed : int;
  mutable s_launches : int;
  mutable s_batches : int;
  mutable s_batched_requests : int;
  mutable s_steals : int;
  mutable s_retries : int;
  mutable s_relaunches : int;
}

(* Fleet-wide device totals, folded per member launch in launch order. *)
type device_totals = {
  mutable blocks : int;
  mutable sim_cycles : float;
  mutable global_loads : int;
  mutable global_stores : int;
  mutable atomics : int;
  mutable device_failures : int;
  mutable faults : Gpusim.Fault.stats;
}

(* --- state and report helpers ------------------------------------------ *)

let validate conf =
  if conf.shards < 1 then invalid_arg "Fleet.run: shards must be >= 1";
  if conf.batch < 1 then invalid_arg "Fleet.run: batch must be >= 1";
  if conf.base.Service.servers < 1 then
    invalid_arg "Fleet.run: servers must be >= 1";
  if conf.base.Service.queue_bound < 0 then
    invalid_arg "Fleet.run: negative queue bound";
  if conf.base.Service.breaker < 0 then
    invalid_arg "Fleet.run: negative breaker threshold";
  if conf.base.Service.window <= 0.0 then
    invalid_arg "Fleet.run: window must be > 0";
  if conf.decay < 0 then invalid_arg "Fleet.run: negative affinity decay";
  (* every device re-validates here, so a hand-built impossible device
     fails before any request moves *)
  List.iter
    (fun d -> ignore (Gpusim.Config.checked d : Gpusim.Config.t))
    conf.devices

let new_shard conf sid =
  let base = conf.base in
  {
    sid;
    queue = Admission.create ~weight:(weight_of conf);
    breakers =
      Breaker.create ~threshold:base.Service.breaker
        ~cooldown:(8.0 *. base.Service.backoff);
    conc = base.Service.servers;
    busy = 0;
    s_placed = 0;
    s_launches = 0;
    s_batches = 0;
    s_batched_requests = 0;
    s_steals = 0;
    s_retries = 0;
    s_relaunches = 0;
  }

let zero_counters = Counters.create ()

let never_ran ~shard (p : Admission.pending) outcome now =
  {
    spec = p.spec;
    shard;
    outcome;
    attempts = p.attempts;
    launches = p.launches;
    batched = 0;
    stolen = p.stolen;
    start = -1.0;
    finish = now;
    latency = now -. p.spec.Request.at;
    compile_ticks = 0.0;
    exec_ticks = 0.0;
    cache = Service.C_none;
    checksum = 0.0;
    counters = zero_counters;
  }

let add_launch dev (m : Batch.member) =
  dev.blocks <- dev.blocks + m.m_grid;
  dev.sim_cycles <- dev.sim_cycles +. m.m_exec;
  dev.global_loads <- dev.global_loads + m.m_counters.Counters.global_loads;
  dev.global_stores <- dev.global_stores + m.m_counters.Counters.global_stores;
  dev.atomics <- dev.atomics + m.m_counters.Counters.atomics;
  dev.faults <- Gpusim.Fault.add_stats dev.faults m.m_faults;
  if m.m_failed then dev.device_failures <- dev.device_failures + 1

let shard_stats placement tally s =
  let n = Metrics.count tally in
  {
    Metrics.shard = s.sid;
    s_device = (Placement.device placement s.sid).Gpusim.Config.name;
    s_placed = s.s_placed;
    s_completed = n Service.Completed;
    s_shed = n Service.Rejected + n Service.Shed;
    s_shed_slo = n Service.Shed_slo;
    s_timed_out = n Service.Timed_out;
    s_degraded = n Service.Degraded;
    s_launches = s.s_launches;
    s_batches = s.s_batches;
    s_batched_requests = s.s_batched_requests;
    s_steals = s.s_steals;
    s_queue_max = Admission.peak s.queue;
    s_breaker_opens = Breaker.opens s.breakers;
    s_breakers_open = Breaker.open_now s.breakers;
    s_retries = s.s_retries;
    s_relaunches = s.s_relaunches;
    s_conc = s.conc;
  }

let tenant_stats conf evictions t tally =
  let n = Metrics.count tally in
  {
    Metrics.tenant = t;
    weight = weight_of conf t;
    t_requests = Metrics.requests tally;
    t_completed = n Service.Completed;
    t_shed = n Service.Rejected + n Service.Shed;
    t_shed_slo = n Service.Shed_slo;
    t_timed_out = n Service.Timed_out;
    t_degraded = n Service.Degraded;
    t_evicted = Option.value ~default:0 (Hashtbl.find_opt evictions t);
    t_latency_mean = Ompsimd_util.Stats.mean (Metrics.latencies tally);
  }

(* --- the event loop ------------------------------------------------------ *)

let run conf ?(run = Gpusim.Run.default) specs =
  validate conf;
  let base = conf.base in
  let placement =
    let n = List.length conf.devices in
    Placement.create ~affinity:conf.affinity ~decay:conf.decay
      ~window:base.Service.window
      ~devices:
        (Array.init conf.shards (fun sid ->
             if n = 0 then base.Service.cfg
             else List.nth conf.devices (sid mod n)))
  in
  let slo = base.Service.slo in
  (* 512 retained latency samples per shard per window: enough for a
     stable windowed p99 at serve rates, bounded so a flash crowd can't
     grow the collector *)
  let tele =
    Telemetry.create
      {
        Telemetry.window = base.Service.window;
        ring = 512;
        emit = conf.telemetry;
      }
      ~labels:(Placement.labels placement) ~base_conc:base.Service.servers
  in
  let asc = Autoscale.create conf.autoscale ~shards:conf.shards in
  (* Effective p99 per shard / fleet-wide, carried across sample-less
     windows: a saturated shard that completed nothing keeps its last
     measured percentile (it did not get healthier by stalling); only a
     genuinely idle one (empty queue, no busy executor) resets to 0. *)
  let carry = Array.make conf.shards 0.0 in
  let carry_fleet = ref 0.0 in
  let shedding = ref false in
  let batcher = Batch.create base ~memo:conf.memo ~run in
  let heap = Eheap.create () in
  let shards = Array.init conf.shards (new_shard conf) in
  let reports = ref [] in
  let inflight_max = ref 0 in
  let recovered = ref 0 in
  let autoscale_grows = ref 0 in
  let autoscale_shrinks = ref 0 in
  let last_time = ref 0.0 in
  let affinity_moves = ref 0 in
  let evictions : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let dev =
    {
      blocks = 0;
      sim_cycles = 0.0;
      global_loads = 0;
      global_stores = 0;
      atomics = 0;
      device_failures = 0;
      faults = Gpusim.Fault.zero_stats;
    }
  in
  (* every record call is a terminal outcome: the report list and the
     telemetry stream see exactly the same events *)
  let record r =
    reports := r :: !reports;
    Telemetry.observe_terminal tele ~shard:r.shard r.outcome ~latency:r.latency
      ~slo
  in
  (* Executor headroom and an empty queue: the dispatch sweep after this
     event launches the request at once, so it passes through past the
     bound without counting toward the queue peak. *)
  let passes_through s = s.busy < s.conc && Admission.length s.queue = 0 in
  let enqueue s p =
    let through = passes_through s in
    Admission.push s.queue ~through p;
    if not through then
      Telemetry.observe_queue_depth tele ~shard:s.sid (Admission.length s.queue)
  in
  (* admission failure (full queue / fairness loss): retry with
     exponential backoff, shared by newcomers and evictees *)
  let retry_or_drop s now (p : Admission.pending) =
    if p.attempts <= base.Service.max_retries then begin
      s.s_retries <- s.s_retries + 1;
      let wait =
        base.Service.backoff *. (2.0 ** float_of_int (p.attempts - 1))
      in
      Eheap.push heap (now +. wait) 1 (Arrive { p with attempts = p.attempts + 1 })
    end
    else
      record
        (never_ran ~shard:s.sid p
           (if base.Service.max_retries = 0 then Service.Rejected
            else Service.Shed)
           now)
  in
  let account s (m : Batch.member) =
    s.s_launches <- s.s_launches + 1;
    Telemetry.observe_launch tele ~shard:s.sid ~failed:m.m_failed;
    add_launch dev m
  in
  (* Dispatch [members] (leader first) as one merged grid on [s],
     occupying one server until it finishes. *)
  let start_batch now s members =
    match Batch.launch batcher ~now (Placement.device placement s.sid) members with
    | None ->
        List.iter
          (fun p -> record (never_ran ~shard:s.sid p Service.Failed now))
          members
    | Some (l : Batch.launch) ->
        Telemetry.observe_cache tele ~shard:s.sid
          ~hit:(l.cache <> Service.C_miss);
        List.iter (account s) l.members;
        let k = List.length l.members in
        if k >= 2 then begin
          s.s_batches <- s.s_batches + 1;
          s.s_batched_requests <- s.s_batched_requests + k
        end;
        s.busy <- s.busy + 1;
        let busy = Array.fold_left (fun acc sh -> acc + sh.busy) 0 shards in
        inflight_max := max !inflight_max busy;
        Eheap.push heap (now +. l.compile +. l.window) 0 (Finish (s.sid, now, l))
  in
  (* The deepest neighbour queue within the thief's device group, ties
     to the lowest shard id: a foreign-width warp could not launch the
     work, and a cross-device steal would make a request's cycles depend
     on shard numbering. *)
  let steal_from s =
    if not conf.steal then None
    else begin
      let victim = ref None in
      Array.iter
        (fun v ->
          let depth = Admission.length v.queue in
          if v.sid <> s.sid && depth > 0 && Placement.same_group placement v.sid s.sid
          then
            match !victim with
            | Some (_, best) when best >= depth -> ()
            | _ -> victim := Some (v, depth))
        shards;
      match !victim with
      | None -> None
      | Some (v, _) ->
          Option.map
            (fun (p : Admission.pending) ->
              s.s_steals <- s.s_steals + 1;
              Telemetry.observe_steal tele ~shard:s.sid;
              { p with stolen = true })
            (Admission.pop v.queue)
    end
  in
  let rec dispatch now s =
    if s.busy < s.conc then
      let candidate =
        match Admission.pop s.queue with Some p -> Some p | None -> steal_from s
      in
      match candidate with
      | None -> ()
      | Some p ->
          (if Admission.expired p now then
             record (never_ran ~shard:s.sid p Service.Timed_out now)
           else
             match Breaker.admit s.breakers p.okey ~now with
             | `Shed -> record (never_ran ~shard:s.sid p Service.Degraded now)
             | `Probe ->
                 (* the half-open probe flies alone: one launch decides
                    whether the breaker closes *)
                 start_batch now s [ p ]
             | `Admit ->
                 let mates =
                   if p.stolen then []
                   else Admission.mates s.queue p ~now ~max:(conf.batch - 1)
                 in
                 start_batch now s (p :: mates));
          dispatch now s
  in
  let arrive now (p : Admission.pending) =
    (* placement happens at arrival-processing time: a retry re-places,
       so content whose cheap device was discovered between attempts
       migrates on its next arrival *)
    let s = shards.(Placement.home placement ~now p.ckey p.spec) in
    if p.attempts = 1 && not p.relaunched then begin
      s.s_placed <- s.s_placed + 1;
      if s.sid <> Placement.plain placement p.ckey then incr affinity_moves
    end;
    (* SLO-aware admission: while the fleet's windowed p99 is over the
       target, the lowest-priority class — and any tenant already over
       its fair share of its home queue — is turned away as Shed_slo.
       Relaunches are exempt: recovery never loses an accepted request. *)
    if
      !shedding
      && (not p.relaunched)
      && (p.spec.Request.priority <= 0 || Admission.over_share s.queue p)
    then record (never_ran ~shard:s.sid p Service.Shed_slo now)
    else if
      passes_through s || Admission.length s.queue < base.Service.queue_bound
    then enqueue s p
    else
      match Admission.contend s.queue p with
      | `Refuse -> retry_or_drop s now p
      | `Evict victim ->
          let t = victim.spec.Request.tenant in
          Hashtbl.replace evictions t
            (1 + Option.value ~default:0 (Hashtbl.find_opt evictions t));
          retry_or_drop s now victim;
          enqueue s p
  in
  let relaunch now sid (p : Admission.pending) =
    if Admission.expired p now then
      record (never_ran ~shard:sid p Service.Timed_out now)
    else
      (* recovery re-enters past the admission bound: the request was
         already accepted *)
      enqueue shards.(sid) { p with relaunched = true }
  in
  let finish now sid started (l : Batch.launch) =
    let s = shards.(sid) in
    s.busy <- s.busy - 1;
    (* feed the affinity table each healthy member's own cycles (memo
       replays feed the same value back: min is idempotent) *)
    List.iter
      (fun (m : Batch.member) ->
        if not m.m_failed then
          Placement.observe placement ~now ~shard:sid m.m_pending.ckey m.m_exec)
      l.members;
    let k = List.length l.members in
    List.iteri
      (fun i (m : Batch.member) ->
        let p = m.m_pending in
        let finished outcome =
          record
            {
              spec = p.spec;
              shard = sid;
              outcome;
              attempts = p.attempts;
              launches = p.launches;
              batched = k;
              stolen = p.stolen;
              start = started;
              finish = now;
              latency = now -. p.spec.Request.at;
              compile_ticks = l.compile;
              exec_ticks = m.m_exec;
              cache =
                (if i > 0 && l.cache = Service.C_miss then Service.C_join
                 else l.cache);
              checksum = m.m_checksum;
              counters = m.m_counters;
            }
        in
        let past_deadline =
          match p.spec.Request.deadline with Some d -> now > d | None -> false
        in
        if not m.m_failed then begin
          Breaker.ok s.breakers p.okey;
          if p.launches > 1 && not past_deadline then incr recovered;
          finished (if past_deadline then Service.Timed_out else Service.Completed)
        end
        else begin
          Breaker.fail s.breakers p.okey ~now;
          if past_deadline then finished Service.Timed_out
          else if p.launches <= base.Service.max_retries then begin
            s.s_relaunches <- s.s_relaunches + 1;
            Telemetry.observe_relaunch tele ~shard:sid;
            let wait =
              base.Service.backoff *. (2.0 ** float_of_int (p.launches - 1))
            in
            Eheap.push heap (now +. wait) 1 (Relaunch (sid, p))
          end
          else finished Service.Degraded
        end)
      l.members
  in
  (* Live shard state at a window boundary: [advance] runs before the
     boundary-crossing event, so this is the state at the boundary. *)
  let sample sid =
    let s = shards.(sid) in
    {
      Telemetry.sq_depth = Admission.length s.queue;
      sq_conc = s.conc;
      sq_busy = s.busy;
      sq_breakers_open = Breaker.open_now s.breakers;
    }
  in
  (* The control plane, once per closed telemetry window: effective-p99
     carry, the SLO shedding flag, the autoscaler step and the breaker
     fast-forward — then the window's control line, after the decisions
     it records. *)
  let on_close (w : Telemetry.window) =
    let idle (sw : Telemetry.shard_window) =
      sw.w_sample.sq_depth = 0 && sw.w_sample.sq_busy = 0
    in
    Array.iteri
      (fun sid (sw : Telemetry.shard_window) ->
        if sw.w_samples > 0 then carry.(sid) <- sw.w_p99
        else if idle sw then carry.(sid) <- 0.0)
      w.per_shard;
    Option.iter
      (fun slo_v ->
        if w.f_samples > 0 then carry_fleet := w.f_p99
        else if Array.for_all idle w.per_shard then carry_fleet := 0.0;
        shedding := conf.shed && !carry_fleet > slo_v)
      slo;
    let grows = ref 0 and shrinks = ref 0 in
    let stats =
      Array.init conf.shards (fun sid ->
          {
            Autoscale.p99 = carry.(sid);
            queued = w.per_shard.(sid).w_sample.sq_depth;
            conc = shards.(sid).conc;
          })
    in
    List.iter
      (fun (a : Autoscale.action) ->
        let s = shards.(a.a_shard) in
        match a.a_verdict with
        | Autoscale.Grow ->
            s.conc <- s.conc + 1;
            incr grows
        | Autoscale.Shrink ->
            s.conc <- s.conc - 1;
            incr shrinks
        | Autoscale.Hold -> ())
      (Autoscale.step asc ~window:w.index
         ~order:(Placement.label_order placement) ~stats);
    autoscale_grows := !autoscale_grows + !grows;
    autoscale_shrinks := !autoscale_shrinks + !shrinks;
    (* A passed fault burst leaves open breakers cooling down on a
       now-healthy shard.  With the autoscaler on, a window with zero
       device failures is the all-clear: the shard's next dispatch of
       such a key is the half-open probe.  Without it, breakers wait
       out the full cooldown. *)
    let reopens = ref 0 in
    if conf.autoscale.Autoscale.enabled then
      Array.iteri
        (fun sid (sw : Telemetry.shard_window) ->
          if sw.w_dev_failures = 0 then
            reopens :=
              !reopens + Breaker.fast_forward shards.(sid).breakers ~at:w.t1)
        w.per_shard;
    let queues = Array.to_list (Array.map (fun s -> s.queue) shards) in
    Telemetry.emit_control tele w ~shedding:!shedding ~grows:!grows
      ~shrinks:!shrinks ~reopens:!reopens
      ~conc:(Array.fold_left (fun a s -> a + s.conc) 0 shards)
      ~pool_left:(Autoscale.pool_left asc)
      ~queued:(List.fold_left (fun a q -> a + Admission.length q) 0 queues)
      ~tenants:(Admission.occupancy queues)
  in
  List.iter
    (fun (spec : Request.spec) -> Eheap.push heap spec.Request.at 1 (Submit spec))
    specs;
  let rec loop () =
    match Eheap.pop heap with
    | None -> ()
    | Some (now, ev) ->
        last_time := max !last_time now;
        (* close every window the clock has crossed before the event
           runs: control decisions land exactly on the boundary *)
        Telemetry.advance tele now ~sample ~on_close;
        (match ev with
        | Submit spec -> arrive now (Batch.pending batcher spec)
        | Arrive p -> arrive now p
        | Relaunch (sid, p) -> relaunch now sid p
        | Finish (sid, started, l) -> finish now sid started l);
        (* the work-conserving sweep: every event is a dispatch
           opportunity for the whole fleet, in shard order — an idle
           shard only sees foreign queues through this, so without it
           stealing could never fire *)
        Array.iter (dispatch now) shards;
        loop ()
  in
  loop ();
  Telemetry.finish tele ~sample ~on_close;
  let reports =
    List.sort
      (fun (a : rq_report) (b : rq_report) ->
        compare a.spec.Request.id b.spec.Request.id)
      !reports
  in
  (* --- one fold of the terminal reports into fleet, shard and tenant
     tallies ------------------------------------------------------------- *)
  let all = Metrics.tally () in
  let by_shard = Array.init conf.shards (fun _ -> Metrics.tally ()) in
  let by_tenant : (string, Metrics.tally) Hashtbl.t = Hashtbl.create 8 in
  let tenant_tally t =
    match Hashtbl.find_opt by_tenant t with
    | Some tl -> tl
    | None ->
        let tl = Metrics.tally () in
        Hashtbl.add by_tenant t tl;
        tl
  in
  List.iter
    (fun r ->
      List.iter
        (fun tl -> Metrics.add tl r.outcome r.cache ~latency:r.latency)
        [ all; by_shard.(r.shard); tenant_tally r.spec.Request.tenant ])
    reports;
  let n = Metrics.count all in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 shards in
  let latencies = Metrics.latencies all in
  let mean, p50, p95, p99 = Metrics.percentiles latencies in
  let metrics =
    {
      Metrics.requests = List.length specs;
      completed = n Service.Completed;
      rejected = n Service.Rejected;
      shed = n Service.Shed;
      shed_slo = n Service.Shed_slo;
      timed_out = n Service.Timed_out;
      failed = n Service.Failed;
      retries = sum (fun s -> s.s_retries);
      queue_max =
        Array.fold_left (fun a s -> max a (Admission.peak s.queue)) 0 shards;
      inflight_max = !inflight_max;
      cache_hits = Metrics.cached all Service.C_hit;
      cache_misses = Metrics.cached all Service.C_miss;
      cache_evictions = Batch.cache_evictions batcher;
      cache_joins = Metrics.cached all Service.C_join;
      latency_mean = mean;
      latency_p50 = p50;
      latency_p95 = p95;
      latency_p99 = p99;
      makespan = !last_time;
      sim_cycles = dev.sim_cycles;
      launches = sum (fun s -> s.s_launches);
      blocks = dev.blocks;
      global_loads = dev.global_loads;
      global_stores = dev.global_stores;
      atomics = dev.atomics;
      device_failures = dev.device_failures;
      relaunches = sum (fun s -> s.s_relaunches);
      recovered = !recovered;
      degraded = n Service.Degraded;
      breaker_opens = sum (fun s -> Breaker.opens s.breakers);
      slo_violations =
        (match slo with
        | None -> 0
        | Some s ->
            Array.fold_left (fun a l -> if l > s then a + 1 else a) 0 latencies);
      autoscale_grows = !autoscale_grows;
      autoscale_shrinks = !autoscale_shrinks;
      breaker_reopens = sum (fun s -> Breaker.forwarded s.breakers);
      faults_corrected = dev.faults.Gpusim.Fault.corrected;
      faults_fatal = dev.faults.Gpusim.Fault.fatal;
      faults_stalls = dev.faults.Gpusim.Fault.stalls;
      faults_exhausts = dev.faults.Gpusim.Fault.exhausts;
      faults_watchdogs = dev.faults.Gpusim.Fault.watchdogs;
    }
  in
  List.iter (fun (t, _) -> ignore (tenant_tally t : Metrics.tally)) conf.tenants;
  let tenant_stats =
    Hashtbl.fold (fun t _ acc -> t :: acc) by_tenant []
    |> List.sort String.compare
    |> List.map (fun t ->
           tenant_stats conf evictions t (Hashtbl.find by_tenant t))
  in
  {
    reports;
    metrics;
    shard_stats =
      Array.to_list
        (Array.map (fun s -> shard_stats placement by_shard.(s.sid) s) shards);
    tenant_stats;
    fleet =
      {
        batches = sum (fun s -> s.s_batches);
        batched_requests = sum (fun s -> s.s_batched_requests);
        steals = sum (fun s -> s.s_steals);
        tenant_evictions = Hashtbl.fold (fun _ n a -> a + n) evictions 0;
        memo_hits = Batch.memo_hits batcher;
        affinity_moves = !affinity_moves;
      };
    telemetry = Telemetry.jsonl tele;
  }

(* --- rendering ---------------------------------------------------------- *)

let report_line (r : rq_report) =
  let spec = r.spec in
  Printf.sprintf
    "req %3d %-8s size=%-3d prio=%d tenant=%-6s shard=%d%s batch=%d %-9s attempts=%d launches=%d cache=%-4s arrive=%.1f start=%.1f finish=%.1f latency=%.1f compile=%.1f exec=%.1f checksum=%Lx"
    spec.Request.id spec.Request.kernel spec.Request.size spec.Request.priority
    spec.Request.tenant r.shard
    (if r.stolen then "*" else "")
    r.batched
    (Service.outcome_to_string r.outcome)
    r.attempts r.launches
    (Service.cache_status_to_string r.cache)
    spec.Request.at r.start r.finish r.latency r.compile_ticks r.exec_ticks
    (Int64.bits_of_float r.checksum)

let report_json (r : rq_report) =
  let spec = r.spec in
  Printf.sprintf
    "{\"id\": %d, \"kernel\": \"%s\", \"size\": %d, \"prio\": %d, \"tenant\": \"%s\", \"shard\": %d, \"stolen\": %b, \"batch\": %d, \"outcome\": \"%s\", \"attempts\": %d, \"launches\": %d, \"cache\": \"%s\", \"arrive\": %.3f, \"start\": %.3f, \"finish\": %.3f, \"latency\": %.3f, \"compile\": %.3f, \"exec\": %.3f, \"checksum\": \"%Lx\"}"
    spec.Request.id spec.Request.kernel spec.Request.size spec.Request.priority
    spec.Request.tenant r.shard r.stolen r.batched
    (Service.outcome_to_string r.outcome)
    r.attempts r.launches
    (Service.cache_status_to_string r.cache)
    spec.Request.at r.start r.finish r.latency r.compile_ticks r.exec_ticks
    (Int64.bits_of_float r.checksum)

(* The placement/batch/steal-invariant core of a replay: what each
   request computed and how it ended, with no timing and no shard
   assignment.  For configs that lose no requests to admission (ample
   queues, no deadlines) this is byte-identical across shard counts
   and batch limits — the fleet's analogue of the engine/pool
   invariance. *)
let result_json (r : rq_report) =
  Printf.sprintf
    "{\"id\": %d, \"tenant\": \"%s\", \"outcome\": \"%s\", \"launches\": %d, \"exec\": %.3f, \"checksum\": \"%Lx\"}"
    r.spec.Request.id r.spec.Request.tenant
    (Service.outcome_to_string r.outcome)
    r.launches r.exec_ticks
    (Int64.bits_of_float r.checksum)

let results_json reports =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"results\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (result_json r))
    reports;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let fleet_stats_json f =
  Printf.sprintf
    "{\"batches\": %d, \"batched_requests\": %d, \"steals\": %d, \"tenant_evictions\": %d, \"memo_hits\": %d, \"affinity_moves\": %d}"
    f.batches f.batched_requests f.steals f.tenant_evictions f.memo_hits
    f.affinity_moves

let snapshot_json conf (res : result) =
  let b = Buffer.create 8192 in
  let base = conf.base in
  Printf.ksprintf (Buffer.add_string b)
    "{\n\
     \"config\": {\"device\": \"%s\", \"devices\": \"%s\", \"affinity\": %b, \"decay\": %d, \"shards\": %d, \"batch\": %d, \"steal\": %b, \"memo\": %b, \"tenants\": \"%s\", \"queue_bound\": %d, \"servers\": %d, \"cache_capacity\": %d, \"max_retries\": %d, \"backoff\": %.3f, \"breaker\": %d, \"slo\": %s, \"window\": %.3f, \"shed\": %b, \"autoscale\": %b, \"budget\": %d, \"cooldown\": %d},\n"
    base.Service.cfg.Gpusim.Config.name
    (String.concat ","
       (List.map (fun (d : Gpusim.Config.t) -> d.Gpusim.Config.name) conf.devices))
    conf.affinity conf.decay conf.shards conf.batch conf.steal conf.memo
    (String.concat ","
       (List.map (fun (t, w) -> Printf.sprintf "%s=%d" t w) conf.tenants))
    base.Service.queue_bound base.Service.servers
    base.Service.cache_capacity base.Service.max_retries
    base.Service.backoff base.Service.breaker
    (match base.Service.slo with
    | None -> "null"
    | Some s -> Printf.sprintf "%.3f" s)
    base.Service.window conf.shed conf.autoscale.Autoscale.enabled
    conf.autoscale.Autoscale.budget conf.autoscale.Autoscale.cooldown;
  Buffer.add_string b "\"requests\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (report_json r))
    res.reports;
  Buffer.add_string b "\n],\n\"shards\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (Metrics.shard_stats_to_json s))
    res.shard_stats;
  Buffer.add_string b "\n],\n\"tenants\": [\n";
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (Metrics.tenant_stats_to_json t))
    res.tenant_stats;
  Buffer.add_string b "\n],\n\"fleet\": ";
  Buffer.add_string b (fleet_stats_json res.fleet);
  Buffer.add_string b ",\n\"metrics\": ";
  Buffer.add_string b (Metrics.to_json res.metrics);
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let to_text (res : result) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Metrics.to_text res.metrics);
  let f = res.fleet in
  Printf.ksprintf (Buffer.add_string b)
    "  fleet       batches %d (members %d)  steals %d  tenant-evictions %d  memo-hits %d  affinity-moves %d\n"
    f.batches f.batched_requests f.steals f.tenant_evictions f.memo_hits
    f.affinity_moves;
  List.iter
    (fun s ->
      Buffer.add_string b "  ";
      Buffer.add_string b (Metrics.shard_stats_line s);
      Buffer.add_char b '\n')
    res.shard_stats;
  List.iter
    (fun t ->
      Buffer.add_string b "  ";
      Buffer.add_string b (Metrics.tenant_stats_line t);
      Buffer.add_char b '\n')
    res.tenant_stats;
  Buffer.contents b
