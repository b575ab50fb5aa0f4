(* Settings suite: the one parser of the OMPSIMD_* knobs, and the
   property the explicit settings value buys — two runs with different
   settings share one process, even on two domains at once. *)

module Fleet = Serve.Fleet
module Offload = Openmp.Offload

let check_bool = Alcotest.check Alcotest.bool

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let settings pairs = Settings.of_lookup (fun k -> List.assoc_opt k pairs)

(* --- the parser, knob by knob ------------------------------------------ *)

(* One row per knob: a valid value (with any knobs it needs alongside),
   where it must land, and a malformed value ([None] for the telemetry
   path, which any string is). *)
type row = {
  knob : string;
  valid : string;
  context : (string * string) list;
  lands : Settings.t -> bool;
  malformed : string option;
}

let row ?(context = []) knob valid lands malformed =
  { knob; valid; context; lands; malformed }

let slo = [ ("OMPSIMD_SERVE_SLO_MS", "8") ]
let base (s : Settings.t) = s.Settings.fleet.Fleet.base
let scaler (s : Settings.t) = s.Settings.fleet.Fleet.autoscale
let knobs (s : Settings.t) = s.Settings.knobs

let table =
  [
    row "OMPSIMD_DEVICE" "small"
      (fun s -> s.Settings.device = Gpusim.Config.small)
      (Some "nope");
    row "OMPSIMD_DOMAINS" "0" (fun s -> s.Settings.domains = 0) (Some "-1");
    row "OMPSIMD_EVAL" "walk"
      (fun s -> (knobs s).Offload.engine = Ompir.Compile.Walk)
      (Some "bogus");
    row "OMPSIMD_FAULTS" "abort=0"
      (fun s -> s.Settings.faults <> None)
      (Some "abort=2");
    row "OMPSIMD_FAULT_SEED" "7"
      ~context:[ ("OMPSIMD_FAULTS", "abort=0.5") ]
      (fun s ->
        s.Settings.faults <> (settings [ ("OMPSIMD_FAULTS", "abort=0.5") ]).faults)
      (Some "seven");
    row "OMPSIMD_FLEET_AFFINITY" "0"
      (fun s -> not s.Settings.fleet.Fleet.affinity)
      (Some "maybe");
    row "OMPSIMD_FLEET_DECAY" "3"
      (fun s -> s.Settings.fleet.Fleet.decay = 3)
      (Some "x");
    row "OMPSIMD_FLEET_DEVICES" "w32-hw,w64-sw"
      (fun s -> List.length s.Settings.fleet.Fleet.devices = 2)
      (Some "w32-hw,nope");
    row "OMPSIMD_PASSES" "fold,dce"
      (fun s -> (knobs s).Offload.passes = "fold,dce")
      (Some "fold,bogus");
    row "OMPSIMD_SANITIZE" "1" (fun s -> s.Settings.sanitize) (Some "maybe");
    row "OMPSIMD_SERVE_AUTOSCALE" "0" ~context:slo
      (fun s -> not (scaler s).Serve.Autoscale.enabled)
      (Some "maybe");
    row "OMPSIMD_SERVE_BACKOFF" "250"
      (fun s -> (base s).Serve.Service.backoff = 250.0)
      (Some "x");
    row "OMPSIMD_SERVE_BATCH" "2"
      (fun s -> s.Settings.fleet.Fleet.batch = 2)
      (Some "x");
    row "OMPSIMD_SERVE_BREAKER" "5"
      (fun s -> (base s).Serve.Service.breaker = 5)
      (Some "x");
    row "OMPSIMD_SERVE_BUDGET" "3" ~context:slo
      (fun s -> (scaler s).Serve.Autoscale.budget = 3)
      (Some "x");
    row "OMPSIMD_SERVE_CACHE" "0"
      (fun s -> (base s).Serve.Service.cache_capacity = 0)
      (Some "x");
    row "OMPSIMD_SERVE_CONC" "3"
      (fun s -> (base s).Serve.Service.servers = 3)
      (Some "x");
    row "OMPSIMD_SERVE_COOLDOWN" "4" ~context:slo
      (fun s -> (scaler s).Serve.Autoscale.cooldown = 4)
      (Some "x");
    row "OMPSIMD_SERVE_MEMO" "0"
      (fun s -> not s.Settings.fleet.Fleet.memo)
      (Some "x");
    row "OMPSIMD_SERVE_QUEUE" "5"
      (fun s -> (base s).Serve.Service.queue_bound = 5)
      (Some "x");
    row "OMPSIMD_SERVE_RETRIES" "1"
      (fun s -> (base s).Serve.Service.max_retries = 1)
      (Some "x");
    row "OMPSIMD_SERVE_SHARDS" "2"
      (fun s -> s.Settings.shards = Some 2 && s.Settings.fleet.Fleet.shards = 2)
      (Some "x");
    row "OMPSIMD_SERVE_SHED" "0"
      (fun s -> not s.Settings.fleet.Fleet.shed)
      (Some "x");
    row "OMPSIMD_SERVE_SLO_MS" "8"
      (fun s -> (base s).Serve.Service.slo = Some 8000.0 && (scaler s).enabled)
      (Some "-1");
    row "OMPSIMD_SERVE_STEAL" "0"
      (fun s -> not s.Settings.fleet.Fleet.steal)
      (Some "x");
    row "OMPSIMD_SERVE_TELEMETRY" "tele.jsonl"
      (fun s ->
        s.Settings.telemetry = Some "tele.jsonl" && s.Settings.fleet.Fleet.telemetry)
      None;
    row "OMPSIMD_SERVE_TENANTS" "alice=3,bob"
      (fun s -> s.Settings.fleet.Fleet.tenants = [ ("alice", 3); ("bob", 1) ])
      (Some "alice=zero");
    row "OMPSIMD_SERVE_WINDOW" "1000"
      (fun s -> (base s).Serve.Service.window = 1000.0)
      (Some "x");
    row "OMPSIMD_SHARING_BYTES" "512"
      (fun s -> (knobs s).Offload.sharing = Offload.Pinned 512)
      (Some "-5");
    row "OMPSIMD_SHARING_DYNAMIC" "0"
      (fun s -> (knobs s).Offload.sharing = Offload.Budget)
      (Some "x");
    row "OMPSIMD_WATCHDOG" "100"
      (fun s -> s.Settings.watchdog = 100.0)
      (Some "x");
  ]

(* The table covers exactly the knobs the parser reads — the names
   tools/loc_report.sh --names lists, 31 of them. *)
let test_table_is_complete () =
  let read = ref [] in
  ignore
    (Settings.of_lookup (fun k ->
         read := k :: !read;
         None));
  Alcotest.(check (list string))
    "the parser reads exactly the table's knobs"
    (List.sort_uniq compare (List.map (fun r -> r.knob) table))
    (List.sort_uniq compare !read);
  Alcotest.(check int) "31 knobs" 31 (List.length table)

let test_knob r () =
  List.iter
    (fun blank ->
      check_bool
        (Printf.sprintf "%s=%S means the default" r.knob blank)
        true
        (settings ((r.knob, blank) :: r.context) = settings r.context))
    [ ""; "  " ];
  check_bool
    (Printf.sprintf "%s=%s lands in its field" r.knob r.valid)
    true
    (r.lands (settings ((r.knob, r.valid) :: r.context)));
  Option.iter
    (fun bad ->
      match settings ((r.knob, bad) :: r.context) with
      | exception Invalid_argument msg ->
          check_bool
            (Printf.sprintf "%s=%s: message %S names the knob" r.knob bad msg)
            true (contains msg r.knob)
      | _ -> Alcotest.failf "%s=%s was accepted" r.knob bad)
    r.malformed

(* --- one launch's settings never leak into another's ------------------- *)

(* Blocks of a pooled launch add into the same four cells from several
   domains, so only the host read-modify-write lock keeps every update.
   Whether to lock belongs to the launch: a stream of sequential
   launches on another domain must not switch it off underneath. *)
let test_rmw_locking_per_launch () =
  let cfg = Gpusim.Config.small in
  let launch ?pool () =
    let cells = Gpusim.Memory.falloc (Gpusim.Memory.space ()) 4 in
    let report =
      Gpusim.Device.launch ~cfg
        ~run:(Gpusim.Run.make ?pool ())
        ~grid:16 ~block:64
        ~init:(fun ~block_id:_ _ -> ())
        ~body:(fun () th ->
          for k = 0 to 47 do
            ignore (Gpusim.Memory.atomic_fadd cells th (k mod 4) 1.0 : float)
          done)
        ()
    in
    (report, Gpusim.Memory.to_float_array cells)
  in
  let pool = Gpusim.Pool.create ~domains:2 () in
  let solo_report, solo_cells = launch ~pool () in
  Alcotest.(check (array (float 0.0)))
    "every update landed" (Array.make 4 12288.0) solo_cells;
  let stop = Atomic.make false in
  let other =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          ignore (launch ())
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join other;
      Gpusim.Pool.shutdown pool)
    (fun () ->
      for i = 1 to 20 do
        let report, cells = launch ~pool () in
        Alcotest.(check (array (float 0.0)))
          (Printf.sprintf "round %d: memory equals the solo run" i)
          solo_cells cells;
        check_bool
          (Printf.sprintf "round %d: report equals the solo run" i)
          true
          (report.Gpusim.Device.time_cycles
           = solo_report.Gpusim.Device.time_cycles
          && Gpusim.Counters.equal report.Gpusim.Device.counters
               solo_report.Gpusim.Device.counters)
      done)

(* Two fleets with different settings replay concurrently on two
   domains: one under a seeded fault plan plus the watchdog, the other
   with the sanitizer on and another plan.  Each must produce exactly
   what it produces alone — report lines, snapshot and telemetry. *)
let fleet_isolation =
  QCheck.Test.make ~count:3 ~name:"concurrent fleets replay their solo runs"
    QCheck.small_nat
    (fun seed ->
      let conf =
        Settings.fleet
          (settings
             [
               ("OMPSIMD_SERVE_SHARDS", "3");
               ("OMPSIMD_SERVE_BATCH", "4");
               ("OMPSIMD_SERVE_RETRIES", "2");
               ("OMPSIMD_SERVE_SLO_MS", "8");
               ("OMPSIMD_SERVE_TELEMETRY", "-");
             ])
          ~cfg:Gpusim.Config.small
      in
      let side knobs profile =
        let s = settings knobs in
        let specs = Serve.Traffic.(generate (preset profile ~n:24 ~seed)) in
        fun () ->
          let r = Fleet.run conf ~run:(Settings.run s) specs in
          String.concat "\n" (List.map Fleet.report_line r.Fleet.reports)
          ^ Fleet.snapshot_json conf r ^ r.Fleet.telemetry
      in
      let a =
        side
          [
            ("OMPSIMD_FAULTS", "abort=0.3,flip=0.2:0.5,stall=0.1");
            ("OMPSIMD_FAULT_SEED", string_of_int (seed + 1));
            ("OMPSIMD_WATCHDOG", "30000");
          ]
          "bursty"
      in
      let b =
        side
          [
            ("OMPSIMD_SANITIZE", "1");
            ("OMPSIMD_FAULTS", "abort=0.2,exhaust=0.5");
            ("OMPSIMD_FAULT_SEED", string_of_int (seed + 2));
          ]
          "flash"
      in
      let solo_a = a () and solo_b = b () in
      let d = Domain.spawn b in
      let together_a = a () in
      let together_b = Domain.join d in
      String.equal solo_a together_a && String.equal solo_b together_b)

let suite =
  [
    ( "settings",
      Alcotest.test_case "the table covers every knob" `Quick
        test_table_is_complete
      :: List.map (fun r -> Alcotest.test_case r.knob `Quick (test_knob r)) table
    );
    ( "settings.isolation",
      [
        Alcotest.test_case "RMW locking belongs to the launch" `Quick
          test_rmw_locking_per_launch;
        QCheck_alcotest.to_alcotest fleet_isolation;
      ] );
  ]
