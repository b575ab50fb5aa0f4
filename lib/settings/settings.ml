(* Every OMPSIMD_* knob, parsed once at the edge into one value: the
   only environment reader below the command line (see the interface). *)

module Env = Ompsimd_util.Env

type t = {
  device : Gpusim.Config.t;
  domains : int;
  knobs : Openmp.Offload.knobs;
  faults : Gpusim.Fault.plan option;
  watchdog : float;
  sanitize : bool;
  fleet : Serve.Fleet.config;
  shards : int option;
  telemetry : string option;
  autoscale : bool;
  budget : int option;
  cooldown : int;
}

let autoscale t ~slo ~shards ~servers =
  match slo with
  | None -> Serve.Autoscale.disabled
  | Some slo ->
      {
        Serve.Autoscale.enabled = t.autoscale;
        slo;
        budget = Option.value t.budget ~default:(2 * shards);
        max_extra = 3 * servers;
        down = 0.5;
        cooldown = t.cooldown;
      }

(* comma-separated tokens, blanks dropped *)
let tokens spec =
  List.filter (( <> ) "") (List.map String.trim (String.split_on_char ',' spec))

let parse_tenants spec =
  List.map
    (fun tok ->
      match String.index_opt tok '=' with
      | None -> (tok, 1)
      | Some i -> (
          let name = String.sub tok 0 i in
          let w = String.sub tok (i + 1) (String.length tok - i - 1) in
          match int_of_string_opt w with
          | Some w when w >= 1 && name <> "" -> (name, w)
          | _ ->
              invalid_arg
                (Printf.sprintf
                   "OMPSIMD_SERVE_TENANTS: token %S is not name=weight" tok)))
    (tokens spec)

(* Zoo names only (a comma already separates shards), resolved up front
   so a misspelt device fails before any request moves. *)
let parse_devices spec =
  List.map
    (fun tok ->
      match Gpusim.Zoo.resolve tok with
      | Ok cfg -> cfg
      | Error msg -> invalid_arg ("OMPSIMD_FLEET_DEVICES: " ^ msg))
    (tokens spec)

let of_lookup lookup =
  let var name = Env.var ~lookup name in
  let int name ~default = Env.int ~lookup name ~default in
  let float name ~default = Env.float ~lookup name ~default in
  let flag name ~default = Env.flag ~lookup name ~default in
  let optional name = Option.map (fun _ -> int name ~default:0) (var name) in
  let fail name fmt =
    Printf.ksprintf (fun msg -> invalid_arg (name ^ ": " ^ msg)) fmt
  in
  let device =
    match var "OMPSIMD_DEVICE" with
    | None -> Gpusim.Config.a100_quarter
    | Some spec -> (
        match Gpusim.Zoo.resolve spec with
        | Ok cfg -> cfg
        | Error msg -> fail "OMPSIMD_DEVICE" "%s" msg)
  in
  (* domains beyond the cores only add stop-the-world GC coordination
     (the submitting domain simulates too); Pool.create stays exact *)
  let domains =
    let cap = max 0 (Domain.recommended_domain_count () - 1) in
    match var "OMPSIMD_DOMAINS" with
    | None -> cap
    | Some s -> (
        match int_of_string_opt s with
        | Some d when d >= 0 -> min d cap
        | _ -> fail "OMPSIMD_DOMAINS" "must be a non-negative integer, got %S" s)
  in
  let engine =
    match var "OMPSIMD_EVAL" with
    | None | Some ("compile" | "staged") -> Ompir.Compile.Staged
    | Some "walk" -> Ompir.Compile.Walk
    | Some s -> fail "OMPSIMD_EVAL" "expected \"compile\" or \"walk\", got %S" s
  in
  let passes = Option.value (var "OMPSIMD_PASSES") ~default:"" in
  (* the spec parser's messages name OMPSIMD_PASSES *)
  ignore (Ompir.Passes.pipeline_of_spec passes : Ompir.Passes.pass list);
  let sharing =
    match int "OMPSIMD_SHARING_BYTES" ~default:0 with
    | n when n > 0 -> Openmp.Offload.Pinned n
    | n when n < 0 -> fail "OMPSIMD_SHARING_BYTES" "must be positive, got %d" n
    | _ ->
        if flag "OMPSIMD_SHARING_DYNAMIC" ~default:true then
          Openmp.Offload.Dynamic
        else Openmp.Offload.Budget
  in
  let knobs = { Openmp.Offload.default_knobs with engine; passes; sharing } in
  let faults =
    let seed = int "OMPSIMD_FAULT_SEED" ~default:0 in
    (* the plan parser's messages name OMPSIMD_FAULTS *)
    Option.map (Gpusim.Fault.parse_spec ~seed) (var "OMPSIMD_FAULTS")
  in
  (* SLOs speak milliseconds of virtual time (1 ms = 1000 ticks) — they
     are operator-facing, ticks are not *)
  let slo =
    match var "OMPSIMD_SERVE_SLO_MS" with
    | None -> None
    | Some s -> (
        match float_of_string_opt s with
        | Some ms when ms > 0.0 -> Some (ms *. 1000.0)
        | _ -> fail "OMPSIMD_SERVE_SLO_MS" "must be a positive number, got %S" s)
  in
  let base =
    {
      Serve.Service.cfg = device;
      queue_bound = int "OMPSIMD_SERVE_QUEUE" ~default:16;
      servers = int "OMPSIMD_SERVE_CONC" ~default:2;
      cache_capacity = int "OMPSIMD_SERVE_CACHE" ~default:32;
      max_retries = int "OMPSIMD_SERVE_RETRIES" ~default:2;
      backoff = float "OMPSIMD_SERVE_BACKOFF" ~default:500.0;
      breaker = int "OMPSIMD_SERVE_BREAKER" ~default:4;
      slo;
      window = float "OMPSIMD_SERVE_WINDOW" ~default:20_000.0;
      knobs;
    }
  in
  let shards = optional "OMPSIMD_SERVE_SHARDS" in
  let telemetry = var "OMPSIMD_SERVE_TELEMETRY" in
  let t =
    {
      device;
      domains;
      knobs;
      faults;
      watchdog = float "OMPSIMD_WATCHDOG" ~default:0.0;
      sanitize = flag "OMPSIMD_SANITIZE" ~default:false;
      fleet =
        {
          Serve.Fleet.base;
          shards = Option.value shards ~default:4;
          batch = int "OMPSIMD_SERVE_BATCH" ~default:8;
          steal = flag "OMPSIMD_SERVE_STEAL" ~default:true;
          memo = flag "OMPSIMD_SERVE_MEMO" ~default:true;
          tenants =
            Option.fold ~none:[] ~some:parse_tenants
              (var "OMPSIMD_SERVE_TENANTS");
          devices =
            Option.fold ~none:[] ~some:parse_devices
              (var "OMPSIMD_FLEET_DEVICES");
          affinity = flag "OMPSIMD_FLEET_AFFINITY" ~default:true;
          telemetry = telemetry <> None;
          shed = flag "OMPSIMD_SERVE_SHED" ~default:true;
          autoscale = Serve.Autoscale.disabled;
          decay = int "OMPSIMD_FLEET_DECAY" ~default:0;
        };
      shards;
      telemetry;
      autoscale = flag "OMPSIMD_SERVE_AUTOSCALE" ~default:true;
      budget = optional "OMPSIMD_SERVE_BUDGET";
      cooldown = int "OMPSIMD_SERVE_COOLDOWN" ~default:2;
    }
  in
  let autoscale =
    autoscale t ~slo ~shards:t.fleet.shards ~servers:base.servers
  in
  { t with fleet = { t.fleet with autoscale } }

let of_env () = of_lookup Sys.getenv_opt

let run ?pool t =
  Gpusim.Run.make ?pool ?faults:t.faults ~watchdog:t.watchdog
    ~sanitize:t.sanitize ()

let service t ~cfg = { t.fleet.base with cfg }
let fleet t ~cfg = { t.fleet with base = service t ~cfg }
