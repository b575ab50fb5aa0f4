(* The classic single-device service: a projection of the fleet.

   One shard, one member per launch, no stealing, no memo, no device
   list, no affinity, no autoscaler.  Admission, retry with backoff,
   the circuit breaker, the single-flight compile charge, SLO shedding
   and the pinned fault nonce all live in {!Fleet.run}; this module
   only fixes the configuration and keeps its report and snapshot
   formats, which carry no shard or batch attribution. *)

include Service

type rq_report = Fleet.rq_report = {
  spec : Request.spec;
  shard : int;
  outcome : outcome;
  attempts : int;
  launches : int;
  batched : int;
  stolen : bool;
  start : float;
  finish : float;
  latency : float;
  compile_ticks : float;
  exec_ticks : float;
  cache : cache_status;
  checksum : float;
  counters : Gpusim.Counters.t;
}

let run conf ?run specs =
  let res =
    Fleet.run
      {
        Fleet.base = conf;
        shards = 1;
        batch = 1;
        steal = false;
        memo = false;
        tenants = [];
        devices = [];
        affinity = false;
        telemetry = false;
        shed = true;
        autoscale = Autoscale.disabled;
        decay = 0;
      }
      ?run specs
  in
  (res.Fleet.reports, res.Fleet.metrics)

(* --- rendering --------------------------------------------------------- *)

let report_line (r : rq_report) =
  let spec = r.spec in
  Printf.sprintf
    "req %3d %-8s size=%-3d prio=%d tenant=%-6s %-9s attempts=%d launches=%d cache=%-4s arrive=%.1f start=%.1f finish=%.1f latency=%.1f compile=%.1f exec=%.1f checksum=%Lx"
    spec.Request.id spec.Request.kernel spec.Request.size spec.Request.priority
    spec.Request.tenant
    (outcome_to_string r.outcome)
    r.attempts r.launches
    (cache_status_to_string r.cache)
    spec.Request.at r.start r.finish r.latency r.compile_ticks r.exec_ticks
    (Int64.bits_of_float r.checksum)

let report_json (r : rq_report) =
  let spec = r.spec in
  Printf.sprintf
    "{\"id\": %d, \"kernel\": \"%s\", \"size\": %d, \"prio\": %d, \"tenant\": \"%s\", \"outcome\": \"%s\", \"attempts\": %d, \"launches\": %d, \"cache\": \"%s\", \"arrive\": %.3f, \"start\": %.3f, \"finish\": %.3f, \"latency\": %.3f, \"compile\": %.3f, \"exec\": %.3f, \"checksum\": \"%Lx\"}"
    spec.Request.id spec.Request.kernel spec.Request.size spec.Request.priority
    spec.Request.tenant
    (outcome_to_string r.outcome)
    r.attempts r.launches
    (cache_status_to_string r.cache)
    spec.Request.at r.start r.finish r.latency r.compile_ticks r.exec_ticks
    (Int64.bits_of_float r.checksum)

(* The full machine-readable snapshot.  Deliberately excludes the
   engine and the pool width: the simulator's bit-identity contract
   makes every field below independent of both, so snapshots from any
   OMPSIMD_EVAL / OMPSIMD_DOMAINS combination must diff clean — the
   serve smoke test checks exactly that. *)
let snapshot_json conf reports metrics =
  let b = Buffer.create 4096 in
  Printf.ksprintf (Buffer.add_string b)
    "{\n\"config\": {\"device\": \"%s\", \"queue_bound\": %d, \"servers\": %d, \"cache_capacity\": %d, \"max_retries\": %d, \"backoff\": %.3f, \"breaker\": %d, \"slo\": %s, \"window\": %.3f},\n"
    conf.cfg.Gpusim.Config.name conf.queue_bound conf.servers
    conf.cache_capacity conf.max_retries conf.backoff conf.breaker
    (match conf.slo with
    | None -> "null"
    | Some s -> Printf.sprintf "%.3f" s)
    conf.window;
  Buffer.add_string b "\"requests\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (report_json r))
    reports;
  Buffer.add_string b "\n],\n\"metrics\": ";
  Buffer.add_string b (Metrics.to_json metrics);
  Buffer.add_string b "\n}\n";
  Buffer.contents b
