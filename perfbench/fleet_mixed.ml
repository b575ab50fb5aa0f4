(* fleet-mixed: the sharded fleet over the "mixed" traffic preset.

   [Serve.Fleet.run] over [Serve.Traffic.generate (preset "mixed")]: 4
   shards with batching, the launch memo, stealing, SLO admission, the
   autoscaler and telemetry all on.  Nearly every launch comes from the
   memo and only a handful of kernels compile, so host time goes to
   placement, admission, the event heap, batching, telemetry and the
   autoscaler — the fleet path, warm, against serve-cold's classic
   path, cold.  The 8 ms SLO sheds a small nonzero share by design, and
   a burst can overflow a shard's queue past its retries; those
   requests count in slo_miss_share, not as failures. *)

open Serve_common
module Fleet = Serve.Fleet
module Traffic = Serve.Traffic

let requests = 4000

(* The timed calls rotate over this many traces, so a run's call times
   average over 32000 requests of traffic rather than one trace's luck;
   trace 0 is the seed's own. *)
let traces = 8
let shards = 4
let slo = 8_000.0

(* The CLI's fleet defaults ([Fleet.config_of_env] with every knob
   blank) plus [--slo 8] and telemetry, spelled out so that no
   environment read can reshape the workload. *)
let conf =
  {
    Fleet.base =
      {
        Scheduler.cfg;
        queue_bound = 16;
        servers = 2;
        cache_capacity = 32;
        max_retries = 2;
        backoff = 500.0;
        breaker = 4;
        slo = Some slo;
        window = 20_000.0;
        knobs = Offload.default_knobs;
      };
    shards;
    batch = 8;
    steal = true;
    memo = true;
    tenants = [];
    devices = [];
    affinity = true;
    telemetry = true;
    shed = true;
    autoscale =
      {
        Serve.Autoscale.enabled = true;
        slo;
        budget = 2 * shards;
        max_extra = 6;
        down = 0.5;
        cooldown = 2;
      };
    decay = 0;
  }

let profile ~seed k =
  Traffic.preset "mixed" ~n:requests ~seed:(seed + (1000 * k))

(* vrate_at_slo: the highest arrival rate on this ladder (requests per
   thousand virtual ticks; the preset itself runs at 1/0.9) at which the
   fleet keeps slo_miss_share at or under 1% with a queue that never
   fills (no admission retry, nothing lost); 0 when no rung does.  Each
   rung replays the seed's traffic with its gaps rescaled.  The first
   compile of a chain kernel alone outlasts the 8 ms SLO and arms SLO
   shedding for the next window, so the share has a floor near 1% and
   the ladder reaches down to sparse traffic. *)
let ladder = [ 0.05; 0.1; 0.15; 0.2; 0.3; 0.4; 0.6; 0.8; 1.0; 1.2 ]

let vrate_at_slo ~seed =
  List.fold_left
    (fun best rate ->
      let specs =
        Traffic.generate
          { (profile ~seed 0) with Traffic.mean_gap = 1000.0 /. rate }
      in
      let m = (Fleet.run conf specs).Fleet.metrics in
      let missed =
        m.Serve.Metrics.slo_violations + m.Serve.Metrics.requests
        - m.Serve.Metrics.completed
      in
      let ok =
        float_of_int missed <= 0.01 *. float_of_int m.Serve.Metrics.requests
        && m.Serve.Metrics.retries = 0
      in
      if ok then Float.max best rate else best)
    0.0 ladder

let outcome refs (result : Fleet.result) =
  let failed = ref 0 and latencies = ref [] in
  List.iter
    (fun (r : Fleet.rq_report) ->
      (match verdict refs r.Fleet.spec r.Fleet.outcome r.Fleet.checksum with
      | Ok_output | Miss -> ()
      | Failure -> incr failed);
      if r.Fleet.outcome = Scheduler.Completed then
        latencies := r.Fleet.latency :: !latencies)
    result.Fleet.reports;
  let metrics = result.Fleet.metrics in
  {
    Workload.attempted = List.length result.Fleet.reports;
    failed = !failed;
    fingerprint =
      Workload.md5 (Fleet.snapshot_json conf result ^ result.Fleet.telemetry);
    sim_cycles = metrics.Serve.Metrics.sim_cycles;
    exact = exact_of ~latencies:!latencies ~metrics;
  }

(* The exact gpusim, omprt and serve counts of one replay, from the
   fleet's own per-request counter splits and aggregates. *)
let fold_result layers (r : Fleet.result) =
  let m = r.Fleet.metrics and f = r.Fleet.fleet in
  let n name v = Layers.count layers name (float_of_int v) in
  n "gpusim.launches" m.Serve.Metrics.launches;
  n "gpusim.blocks" m.Serve.Metrics.blocks;
  Layers.count layers "gpusim.sim_cycles" m.Serve.Metrics.sim_cycles;
  List.iter
    (fun (q : Fleet.rq_report) -> Layers.fold_counters layers q.Fleet.counters)
    r.Fleet.reports;
  fold_metrics layers m;
  Layers.count layers "serve.memo_hit_ratio"
    (if m.Serve.Metrics.launches = 0 then 0.0
     else
       float_of_int f.Fleet.memo_hits /. float_of_int m.Serve.Metrics.launches);
  n "serve.batches" f.Fleet.batches;
  n "serve.batched_requests" f.Fleet.batched_requests;
  n "serve.steals" f.Fleet.steals

(* Distinct values of [key] over [xs], in first-appearance order. *)
let distinct key xs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else (
        Hashtbl.add seen k ();
        true))
    xs

let prepare ~seed =
  let all = Array.init traces (fun k -> Traffic.generate (profile ~seed k)) in
  let specs = all.(0) in
  let refs = lazy (references (List.concat (Array.to_list all))) in
  let call k =
    let result = Fleet.run conf all.(k) in
    fun () -> outcome (Lazy.force refs) result
  in
  let references () =
    let refs = Lazy.force refs in
    let vrate = vrate_at_slo ~seed in
    let layered layers =
      ignore
        (Layers.span layers "serve.traffic_gen_ms" (fun () ->
             Traffic.generate (profile ~seed 0)));
      let result =
        Layers.span layers "serve.run_ms" (fun () -> Fleet.run conf specs)
      in
      fold_result layers result;
      let ring = Fleet.make_ring shards in
      let knobs = conf.Fleet.base.Scheduler.knobs in
      List.iter
        (fun spec ->
          ignore
            (Layers.span layers "serve.place_us" (fun () ->
                 Fleet.place ring (Fleet.content_key ~knobs spec))))
        specs;
      (* the host work the run did besides its own bookkeeping: one
         compile per distinct compile content and one real launch per
         distinct memo content, among the requests that ran *)
      let ran =
        List.filter_map
          (fun (r : Fleet.rq_report) ->
            if r.Fleet.launches > 0 then Some r.Fleet.spec else None)
          result.Fleet.reports
      in
      let wrong = ref 0 in
      List.iter
        (fun spec ->
          match layered_compile layers spec with
          | Error _ -> incr wrong
          | Ok compiled ->
              List.iter
                (fun s ->
                  let _, checksum = layered_launch layers compiled s in
                  if not (checksum_ok refs s checksum) then incr wrong)
                (distinct content
                   (List.filter
                      (fun s -> compile_content s = compile_content spec)
                      ran)))
        (distinct compile_content ran);
      let o = outcome refs result in
      { o with Workload.failed = o.Workload.failed + !wrong }
    in
    {
      Workload.reference_failures = 0;
      exact = [ ("vrate_at_slo", vrate) ];
      layered;
    }
  in
  { Workload.inputs = traces; call; references }

let workload = { Workload.name = "fleet-mixed"; prepare }
