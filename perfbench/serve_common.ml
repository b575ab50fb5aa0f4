(* What the two serve workloads share: the device, the independent
   output reference, the per-request checks and the layered replay of
   the compile and launch path. *)

module Request = Serve.Request
module Scheduler = Serve.Scheduler
module Offload = Openmp.Offload
module Passes = Ompir.Passes

let cfg = Gpusim.Config.small

let clauses (spec : Request.spec) =
  Openmp.Clause.(
    none
    |> num_teams spec.Request.teams
    |> num_threads spec.Request.threads
    |> simdlen spec.Request.simdlen)

(* A request's output is a function of its content, launch geometry and
   data seed — the identity the fleet's launch memo keys on. *)
let content (spec : Request.spec) =
  Request.
    ( spec.kernel,
      spec.size,
      spec.guardize,
      spec.teams,
      spec.threads,
      spec.simdlen,
      spec.seed )

(* The compile identity under fixed knobs. *)
let compile_content (spec : Request.spec) =
  Request.(spec.kernel, spec.size, spec.guardize)

(* The independent reference for a request's checksum: the Ompir.Eval
   tree walker running the request's content with the [none] pipeline —
   no optimisation pass, no staged engine, no cache.  [guardize] is
   part of the content, so it is applied. *)
let reference_checksum (spec : Request.spec) =
  let kernel, bindings, out = Request.instantiate spec in
  let kernel =
    if spec.Request.guardize then fst (Ompir.Spmdize.guardize kernel)
    else kernel
  in
  let params, _, simd_len = Openmp.Clause.resolve ~cfg (clauses spec) in
  let options =
    {
      Ompir.Eval.num_teams = params.Omprt.Team.num_teams;
      num_threads = params.Omprt.Team.num_threads;
      teams_mode = params.Omprt.Team.teams_mode;
      parallel_mode = `Auto;
      simd_len;
      sharing_bytes = params.Omprt.Team.sharing_bytes;
    }
  in
  let (_ : Gpusim.Device.report) =
    Ompir.Eval.run ~cfg ~options ~bindings (Ompir.Outline.run kernel)
  in
  Request.checksum out

(* One reference per distinct content. *)
let references specs =
  let refs = Hashtbl.create 64 in
  List.iter
    (fun spec ->
      let c = content spec in
      if not (Hashtbl.mem refs c) then
        Hashtbl.add refs c (reference_checksum spec))
    specs;
  refs

(* [hist] is the catalog's only template whose output is written through
   atomics, whose summation order may differ; its checksum compares with
   the pass certification's tolerance (test/test_passes.ml), every other
   one bitwise. *)
let checksum_ok refs (spec : Request.spec) got =
  let expected = Hashtbl.find refs (content spec) in
  if spec.Request.kernel = "hist" then
    let scale = Float.max (abs_float expected) (abs_float got) in
    abs_float (expected -. got) <= 1e-9 *. Float.max 1.0 scale
  else Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got)

(* How a request ended, for the counts: completed with the right output;
   a miss, which is the service's admission or deadline policy turning
   the request away with an explicit outcome (an SLO shed, the admission
   bound after its retries, an expired deadline), counted in
   slo_miss_share; or a failure: a wrong output, a compile failure, or a
   request the service accepted and gave up on. *)
type verdict = Ok_output | Miss | Failure

let verdict refs (spec : Request.spec) outcome checksum =
  match (outcome : Scheduler.outcome) with
  | Scheduler.Completed ->
      if checksum_ok refs spec checksum then Ok_output else Failure
  | Scheduler.Shed_slo | Scheduler.Rejected | Scheduler.Shed
  | Scheduler.Timed_out ->
      Miss
  | Scheduler.Failed | Scheduler.Degraded -> Failure

(* The exact end-to-end values of one replay: virtual latency of the
   completed requests from arrival, and the share of requests that
   missed the SLO or did not complete. *)
let exact_of ~latencies ~(metrics : Serve.Metrics.t) =
  let lat = Array.of_list latencies in
  let pct p =
    if Array.length lat = 0 then 0.0
    else Ompsimd_util.Stats.percentile lat p /. 1000.0
  in
  let requests = metrics.Serve.Metrics.requests in
  [
    ("vlat_p50_kticks", pct 50.0);
    ("vlat_p99_kticks", pct 99.0);
    ( "slo_miss_share",
      if requests = 0 then 0.0
      else
        float_of_int
          (metrics.Serve.Metrics.slo_violations + requests
         - metrics.Serve.Metrics.completed)
        /. float_of_int requests );
  ]

(* The service's exact counts of one replay. *)
let fold_metrics layers (m : Serve.Metrics.t) =
  let n name v = Layers.count layers name (float_of_int v) in
  Layers.count layers "serve.cache_hit_ratio" (Serve.Metrics.cache_hit_rate m);
  n "serve.launches" m.Serve.Metrics.launches;
  n "serve.shed_slo" m.Serve.Metrics.shed_slo;
  n "serve.autoscale_grows" m.Serve.Metrics.autoscale_grows;
  n "serve.autoscale_shrinks" m.Serve.Metrics.autoscale_shrinks;
  n "serve.queue_max" m.Serve.Metrics.queue_max;
  n "serve.retries" m.Serve.Metrics.retries

let weight k = float_of_int (Ompir.Kdigest.weight k)

(* The pass name without its argument: "unroll(32)" -> "unroll". *)
let pass_family name =
  match String.index_opt name '(' with
  | Some i -> String.sub name 0 i
  | None -> name

(* One compile replayed through each front-end layer: the content
   digest, the cache key, one check, the verified pipeline, each pass
   on its own, and the full compile.  Returns the compiled kernel. *)
let layered_compile layers (spec : Request.spec) =
  let kernel = Request.kernel_of_spec spec in
  let knobs =
    { Offload.default_knobs with Offload.guardize = spec.Request.guardize }
  in
  ignore
    (Layers.span layers "ompir.digest_ms" (fun () -> Ompir.Kdigest.hex kernel));
  ignore
    (Layers.span layers "openmp.cache_key_ms" (fun () ->
         Offload.cache_key ~knobs kernel));
  Layers.count layers "ompir.nodes_in" (weight kernel);
  ignore
    (Layers.span layers "ompir.check_ms" (fun () -> Ompir.Check.kernel kernel));
  let pipeline = Passes.pipeline_of_spec (Offload.effective_passes knobs) in
  (match
     Layers.span layers "ompir.pipeline_ms" (fun () ->
         Passes.run_verified pipeline kernel)
   with
  | Ok k -> Layers.count layers "ompir.nodes_out" (weight k)
  | Error _ -> ());
  ignore
    (List.fold_left
       (fun k (p : Passes.pass) ->
         Layers.span layers
           ("ompir.pass." ^ pass_family p.Passes.name ^ "_ms")
           (fun () -> p.Passes.transform k))
       kernel pipeline);
  Layers.span layers "openmp.compile_ms" (fun () ->
      Offload.compile_with ~knobs kernel)

(* One launch replayed through Offload.run on fresh bindings: the
   report and the output checksum. *)
let layered_launch layers compiled (spec : Request.spec) =
  let _, bindings, out = Request.instantiate spec in
  let report =
    Layers.launch layers "openmp.launch_ms" Fun.id (fun () ->
        Offload.run ~cfg ~clauses:(clauses spec) ~bindings compiled)
  in
  (report, Request.checksum out)
