(* Merged-grid launches, the content memo and member splitting.  See
   batch.mli. *)

module Offload = Openmp.Offload
module Counters = Gpusim.Counters

type member = {
  m_pending : Admission.pending;
  m_exec : float;
  m_failed : bool;
  m_checksum : float;
  m_grid : int;
  m_counters : Counters.t;
  m_faults : Gpusim.Fault.stats;
}

type launch = {
  members : member list;
  cache : Service.cache_status;
  compile : float;
  window : float;
}

type t = {
  knobs : Offload.knobs;
  run : Gpusim.Run.t;
  cache : Cache.t;
  compiling : (string, float) Hashtbl.t;  (* key -> virtual compile end *)
  memo : (string, member) Hashtbl.t option;  (* None: off or armed *)
  keys : (string * int * bool, string * string) Hashtbl.t;
  mutable memo_hits : int;
}

(* Structural and host-independent, like {!Service.compile_cost}. *)
let merge_overhead = 64.0
let nonce_for (spec : Request.spec) ~launches = 1 + (spec.Request.id * 1021) + launches

let create (base : Service.config) ~memo ~run =
  {
    knobs = base.Service.knobs;
    run;
    cache = Cache.create ~capacity:base.Service.cache_capacity;
    compiling = Hashtbl.create 16;
    memo =
      (if memo && not (Gpusim.Run.armed run) then Some (Hashtbl.create 64)
       else None);
    keys = Hashtbl.create 16;
    memo_hits = 0;
  }

let memo_hits t = t.memo_hits
let cache_evictions t = (Cache.stats t.cache).Cache.evictions

let content_key_of_digest ~knobs (spec : Request.spec) digest =
  Printf.sprintf "%s|%c|%s" digest
    (if spec.guardize then 'g' else '-')
    (Offload.effective_passes knobs)

let content_key ~knobs (spec : Request.spec) =
  content_key_of_digest ~knobs spec
    (Ompir.Kdigest.hex (Request.kernel_of_spec spec))

let knobs_for t (spec : Request.spec) =
  { t.knobs with Offload.guardize = spec.Request.guardize }

let pending t (spec : Request.spec) : Admission.pending =
  let k = (spec.Request.kernel, spec.Request.size, spec.Request.guardize) in
  let (ckey, okey), ir =
    match Hashtbl.find_opt t.keys k with
    | Some keys -> (keys, None)
    | None ->
        let knobs = knobs_for t spec in
        let ir = Request.kernel_of_spec spec in
        let digest = Ompir.Kdigest.hex ir in
        let keys =
          ( content_key_of_digest ~knobs spec digest,
            Offload.cache_key_of_digest ~knobs digest )
        in
        Hashtbl.add t.keys k keys;
        (keys, Some ir)
  in
  let bkey =
    Printf.sprintf "%s|%dx%dx%d" ckey spec.Request.teams spec.Request.threads
      spec.Request.simdlen
  in
  {
    spec;
    attempts = 1;
    launches = 0;
    ckey;
    bkey;
    mkey = Printf.sprintf "%s|%d|%d" bkey spec.Request.size spec.Request.seed;
    okey;
    stolen = false;
    relaunched = false;
    ir;
  }

let real_launch t ~cfg compiled (p : Admission.pending) inst =
  let _kernel, bindings, out = Lazy.force inst in
  let spec = p.spec in
  let clauses =
    Openmp.Clause.(
      none
      |> num_teams spec.Request.teams
      |> num_threads spec.Request.threads
      |> simdlen spec.Request.simdlen)
  in
  let run = Gpusim.Run.pin t.run (nonce_for spec ~launches:p.launches) in
  let m_pending = { p with launches = p.launches + 1 } in
  match Offload.run ~cfg ~run ~clauses ~bindings compiled with
  | report ->
      {
        m_pending;
        m_exec = report.Gpusim.Device.time_cycles;
        m_failed = report.Gpusim.Device.failures <> [];
        m_checksum = Request.checksum out;
        m_grid = report.Gpusim.Device.grid;
        m_counters = report.Gpusim.Device.counters;
        m_faults = report.Gpusim.Device.faults;
      }
  | exception Gpusim.Engine.Deadlock _ ->
      {
        m_pending;
        m_exec = 0.0;
        m_failed = true;
        m_checksum = 0.0;
        m_grid = 0;
        m_counters = Counters.create ();
        m_faults = Gpusim.Fault.zero_stats;
      }

let launch_member t (cfg : Gpusim.Config.t) compiled
    ((p : Admission.pending), inst) =
  let p = { p with ir = None } in
  match t.memo with
  | None -> real_launch t ~cfg compiled p inst
  | Some memo -> (
      (* keyed on content and device: cycles, occupancy and counters are
         functions of the device *)
      let mkey = p.mkey ^ "|" ^ cfg.Gpusim.Config.name in
      match Hashtbl.find_opt memo mkey with
      | Some m ->
          t.memo_hits <- t.memo_hits + 1;
          { m with m_pending = { p with launches = p.launches + 1 } }
      | None ->
          let m = real_launch t ~cfg compiled p inst in
          Hashtbl.add memo mkey m;
          m)

let launch t ~now cfg (members : Admission.pending list) =
  let leader = List.hd members in
  (* Each member instantiates lazily, so a memo hit never builds its
     bindings; the leader's instance also supplies the IR a miss
     compiles and prices. *)
  let members =
    List.map
      (fun (p : Admission.pending) ->
        (p, lazy (Request.instantiate ?kernel:p.ir p.spec)))
      members
  in
  let kernel () =
    let k, _, _ = Lazy.force (snd (List.hd members)) in
    k
  in
  let key = leader.okey in
  let status, result =
    Cache.find_or_compile t.cache ~key ~compile:(fun () ->
        Offload.compile_with ~knobs:(knobs_for t leader.spec) (kernel ()))
  in
  match result with
  | Error _ -> None
  | Ok compiled ->
      let cache, compile =
        match status with
        | `Miss ->
            let c = Service.compile_cost (kernel ()) in
            Hashtbl.replace t.compiling key (now +. c);
            (Service.C_miss, c)
        | `Hit | `Joined -> (
            match Hashtbl.find_opt t.compiling key with
            | Some done_at when done_at > now -> (Service.C_join, done_at -. now)
            | _ -> (Service.C_hit, 0.0))
      in
      let members = List.map (launch_member t cfg compiled) members in
      let window =
        List.fold_left (fun acc m -> max acc m.m_exec) 0.0 members
        +. (merge_overhead *. float_of_int (List.length members - 1))
      in
      Some { members; cache; compile; window }
