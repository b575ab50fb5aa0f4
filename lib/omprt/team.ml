module Mask = Ompsimd_util.Mask

type params = {
  num_teams : int;
  num_threads : int;
  teams_mode : Mode.t;
  sharing_bytes : int;
}

let default_params =
  {
    num_teams = 1;
    num_threads = 32;
    teams_mode = Mode.Spmd;
    sharing_bytes = Sharing.default_bytes;
  }

type ctx = { th : Gpusim.Thread.t; team : t }
and microtask = ctx -> Payload.t -> unit
and simd_body = ctx -> int -> Payload.t -> unit

and parallel_task = {
  fn : microtask;
  fn_id : int;
  payload : Payload.t;
  task_mode : Mode.t;
  group_size : int;
  mutable payload_location : Sharing.location;
}

and simd_reducer = ctx -> int -> Payload.t -> float

and simd_slot = {
  mutable simd_fn : simd_body option;
  mutable simd_red_fn : simd_reducer option;
  mutable simd_red_op : Redop.t;
  mutable simd_fn_id : int;
  mutable simd_trip : int;
  mutable simd_args : Payload.t;
  mutable simd_args_location : Sharing.location;
}

and t = {
  cfg : Gpusim.Config.t;
  block_id : int;
  params : params;
  num_workers : int;
  main_tid : int option;
  team_barrier : Gpusim.Barrier.t;
  warp_barriers : (int, Gpusim.Barrier.t) Hashtbl.t;
  region_barriers : (int, Gpusim.Barrier.t) Hashtbl.t;
  lockstep_barriers : (int, Gpusim.Barrier.t) Hashtbl.t;
  (* per-tid last-key memos over the two tables above, backed by a
     per-warp layer: the 32 lanes of a warp share each (warp, mask)
     barrier, so after the first lane's table lookup its siblings
     resolve without touching the Hashtbl at all *)
  wb_memo_key : int array;
  wb_memo_bar : Gpusim.Barrier.t option array;
  ls_memo_key : int array;
  ls_memo_bar : Gpusim.Barrier.t option array;
  wb_warp_key : int array;
  wb_warp_bar : Gpusim.Barrier.t option array;
  ls_warp_key : int array;
  ls_warp_bar : Gpusim.Barrier.t option array;
  sharing : Sharing.t;
  simd_slots : simd_slot array;
  mutable parallel_signal : parallel_task option;
  mutable active_geometry : Simd_group.t option;
  mutable active_task : parallel_task option;
  mutable dispatch_table_size : int;
  red_scratch : float array;
  mutable dyn_counter : int;
  mutable dyn_active : int;
  in_region : bool array;
  (* Fused-lockstep scratch (see Workshare.simd_loop): each lane deposits
     its thread handle, loop body and trip count before the entry
     rendezvous; the lane the engine resumes first drives every lane's
     rounds directly and bumps the group's sequence number so the parked
     lanes skip execution when they wake.  [fused_ths] is sized lazily on
     first use (Barrier-style) because a dummy Thread.t is not
     constructible here. *)
  mutable fused_ths : Gpusim.Thread.t array;
  fused_fns : (int -> unit) array;
  fused_reds : (int -> float) array;
  fused_acc : float array;
  fused_trip : int array;
  fused_actor : int array;
  fused_seq : int array;
}

let block_threads ~(cfg : Gpusim.Config.t) params =
  match params.teams_mode with
  | Mode.Spmd -> params.num_threads
  | Mode.Generic -> params.num_threads + cfg.Gpusim.Config.warp_size

let create ~cfg ~arena ~params ~block_id =
  let ws = cfg.Gpusim.Config.warp_size in
  if params.num_threads <= 0 || params.num_threads mod ws <> 0 then
    invalid_arg "Team.create: num_threads must be a positive warp multiple";
  let total = block_threads ~cfg params in
  if total > cfg.Gpusim.Config.max_threads_per_block then
    invalid_arg "Team.create: block exceeds max_threads_per_block";
  let num_workers = params.num_threads in
  let main_tid =
    match params.teams_mode with
    | Mode.Generic -> Some num_workers
    | Mode.Spmd -> None
  in
  let expected = num_workers + (match main_tid with Some _ -> 1 | None -> 0) in
  let fresh_slot () =
    {
      simd_fn = None;
      simd_red_fn = None;
      simd_red_op = Redop.sum;
      simd_fn_id = -1;
      simd_trip = 0;
      simd_args = Payload.empty;
      simd_args_location = Sharing.none;
    }
  in
  {
    cfg;
    block_id;
    params;
    num_workers;
    main_tid;
    team_barrier =
      Gpusim.Barrier.create
        ~name:(Printf.sprintf "team%d" block_id)
        ~expected
        ~cost:cfg.Gpusim.Config.cost.Gpusim.Config.block_barrier ();
    warp_barriers = Hashtbl.create 16;
    region_barriers = Hashtbl.create 4;
    lockstep_barriers = Hashtbl.create 16;
    wb_memo_key = Array.make total min_int;
    wb_memo_bar = Array.make total None;
    ls_memo_key = Array.make total min_int;
    ls_memo_bar = Array.make total None;
    wb_warp_key = Array.make ((total + ws - 1) / ws) min_int;
    wb_warp_bar = Array.make ((total + ws - 1) / ws) None;
    ls_warp_key = Array.make ((total + ws - 1) / ws) min_int;
    ls_warp_bar = Array.make ((total + ws - 1) / ws) None;
    sharing = Sharing.create ~arena ~bytes:params.sharing_bytes;
    simd_slots = Array.init num_workers (fun _ -> fresh_slot ());
    parallel_signal = None;
    active_geometry = None;
    active_task = None;
    dispatch_table_size = 0;
    red_scratch = Array.make num_workers 0.0;
    dyn_counter = 0;
    dyn_active = 0;
    in_region = Array.make num_workers false;
    fused_ths = [||];
    fused_fns = Array.make total (fun (_ : int) -> ());
    fused_reds = Array.make total (fun (_ : int) -> 0.0);
    fused_acc = Array.make total 0.0;
    fused_trip = Array.make total 0;
    fused_actor = Array.make total 0;
    fused_seq = Array.make num_workers 0;
  }

type role = Team_main | Worker | Inactive_main_lane

let role t ~tid =
  if tid < t.num_workers then Worker
  else
    match t.main_tid with
    | Some m when tid = m -> Team_main
    | Some _ | None -> Inactive_main_lane

let geometry t =
  match t.active_geometry with
  | Some g -> g
  | None -> failwith "Team.geometry: no parallel region is active"

let slot t ~group =
  if group < 0 || group >= Array.length t.simd_slots then
    invalid_arg "Team.slot: group out of range";
  t.simd_slots.(group)

(* Sanitizer taps: every rendezvous the runtime performs is reported to
   Ompsan *before* the engine wait, with the participant set the barrier
   expects, so the shadow epochs advance exactly where real
   synchronization happens.  One load-and-branch when disabled. *)
let san_warp_arrive (th : Gpusim.Thread.t) ~mask bar =
  if Gpusim.Thread.sanitize th then begin
    let ws = th.Gpusim.Thread.cfg.Gpusim.Config.warp_size in
    let warp = th.Gpusim.Thread.warp.Gpusim.Thread.warp_index in
    let participants = List.map (fun l -> (warp * ws) + l) (Mask.to_list mask) in
    Gpusim.Ompsan.barrier_arrive th ~block_scope:false ~mask
      ~bar_id:(Gpusim.Barrier.id bar)
      ~bar_name:(Gpusim.Barrier.name bar)
      ~expected:(Gpusim.Barrier.expected bar)
      ~participants
  end

let san_block_arrive (th : Gpusim.Thread.t) ~participants bar =
  if Gpusim.Thread.sanitize th then
    Gpusim.Ompsan.barrier_arrive th ~block_scope:true ~mask:0
      ~bar_id:(Gpusim.Barrier.id bar)
      ~bar_name:(Gpusim.Barrier.name bar)
      ~expected:(Gpusim.Barrier.expected bar)
      ~participants:(participants ())

let warp_barrier_for t (th : Gpusim.Thread.t) ~mask =
  let tid = th.Gpusim.Thread.tid in
  let warp = th.Gpusim.Thread.warp.Gpusim.Thread.warp_index in
  let key = (warp * 0x1_0000_0000) lor mask in
  match t.wb_memo_bar.(tid) with
  | Some b when t.wb_memo_key.(tid) = key -> b
  | _ ->
      let b =
        match t.wb_warp_bar.(warp) with
        | Some b when t.wb_warp_key.(warp) = key -> b
        | _ ->
            let b =
              match Hashtbl.find_opt t.warp_barriers key with
              | Some b -> b
              | None ->
                  let b =
                    let participants = Mask.popcount mask in
                    Gpusim.Barrier.create
                      ~name:(Printf.sprintf "warp%d:%08x" warp mask)
                      ~spin:(Gpusim.Config.warp_barrier_spins t.cfg)
                      ~expected:participants
                      ~cost:
                        (Gpusim.Config.warp_barrier_cost t.cfg ~participants)
                      ()
                  in
                  Hashtbl.add t.warp_barriers key b;
                  b
            in
            t.wb_warp_key.(warp) <- key;
            t.wb_warp_bar.(warp) <- Some b;
            b
      in
      t.wb_memo_key.(tid) <- key;
      t.wb_memo_bar.(tid) <- Some b;
      b

let lockstep_barrier t (th : Gpusim.Thread.t) ~mask =
  let tid = th.Gpusim.Thread.tid in
  let warp = th.Gpusim.Thread.warp.Gpusim.Thread.warp_index in
  let key = (warp * 0x1_0000_0000) lor mask in
  match t.ls_memo_bar.(tid) with
  | Some b when t.ls_memo_key.(tid) = key -> b
  | _ ->
      let b =
        match t.ls_warp_bar.(warp) with
        | Some b when t.ls_warp_key.(warp) = key -> b
        | _ ->
            let b =
              match Hashtbl.find_opt t.lockstep_barriers key with
              | Some b -> b
              | None ->
                  let b =
                    Gpusim.Barrier.create
                      ~name:(Printf.sprintf "lockstep%d:%08x" warp mask)
                      ~expected:(Ompsimd_util.Mask.popcount mask)
                      ~cost:0.0 ()
                  in
                  Hashtbl.add t.lockstep_barriers key b;
                  b
            in
            t.ls_warp_key.(warp) <- key;
            t.ls_warp_bar.(warp) <- Some b;
            b
      in
      t.ls_memo_key.(tid) <- key;
      t.ls_memo_bar.(tid) <- Some b;
      b

let lockstep_align ctx =
  let g = geometry ctx.team in
  if Simd_group.get_simd_group_size g > 1 then begin
    let tid = ctx.th.Gpusim.Thread.tid in
    let mask = Simd_group.simdmask g ~tid in
    let bar = lockstep_barrier ctx.team ctx.th ~mask in
    san_warp_arrive ctx.th ~mask bar;
    Gpusim.Engine.barrier_wait bar ctx.th
  end

let sync_warp ctx =
  let g = geometry ctx.team in
  if Simd_group.get_simd_group_size g > 1 then
    match ctx.team.cfg.Gpusim.Config.barrier_impl with
    | Gpusim.Config.Hw_barrier | Gpusim.Config.Sw_barrier ->
        (* Hardware masked sync, or its software emulation (spin on
           shared-memory flags) — either way a real blocking rendezvous;
           they differ only in cost shape (see Config.warp_barrier_cost). *)
        let mask = Simd_group.simdmask g ~tid:ctx.th.Gpusim.Thread.tid in
        let bar = warp_barrier_for ctx.team ctx.th ~mask in
        ctx.th.Gpusim.Thread.counters.Gpusim.Counters.warp_barriers <-
          ctx.th.Gpusim.Thread.counters.Gpusim.Counters.warp_barriers + 1;
        san_warp_arrive ctx.th ~mask bar;
        Gpusim.Engine.barrier_wait bar ctx.th
    | Gpusim.Config.No_barrier ->
        (* No explicit wavefront barrier (§5.4.1), but AMD wavefronts are
           implicitly lockstep, which is all the SPMD path needs; the
           generic state machine — which needs a *blocking* rendezvous —
           was already degraded to singleton groups by __parallel. *)
        lockstep_align ctx

let team_barrier_wait ctx =
  ctx.th.Gpusim.Thread.counters.Gpusim.Counters.block_barriers <-
    ctx.th.Gpusim.Thread.counters.Gpusim.Counters.block_barriers + 1;
  san_block_arrive ctx.th
    ~participants:(fun () ->
      let workers = List.init ctx.team.num_workers Fun.id in
      match ctx.team.main_tid with
      | Some m -> workers @ [ m ]
      | None -> workers)
    ctx.team.team_barrier;
  Gpusim.Engine.barrier_wait ctx.team.team_barrier ctx.th

let executing_threads t =
  match t.active_task with
  | None -> failwith "Team.executing_threads: no parallel region is active"
  | Some task -> (
      match task.task_mode with
      | Mode.Spmd -> t.num_workers
      | Mode.Generic -> (geometry t).Simd_group.num_groups)

let region_barrier_wait ctx =
  let expected = executing_threads ctx.team in
  if expected > 1 then begin
    let bar =
      match Hashtbl.find_opt ctx.team.region_barriers expected with
      | Some b -> b
      | None ->
          let b =
            Gpusim.Barrier.create
              ~name:(Printf.sprintf "region%d/%d" ctx.team.block_id expected)
              ~expected
              ~cost:ctx.team.cfg.Gpusim.Config.cost.Gpusim.Config.block_barrier
              ()
          in
          Hashtbl.add ctx.team.region_barriers expected b;
          b
    in
    ctx.th.Gpusim.Thread.counters.Gpusim.Counters.block_barriers <-
      ctx.th.Gpusim.Thread.counters.Gpusim.Counters.block_barriers + 1;
    san_block_arrive ctx.th
      ~participants:(fun () ->
        match (Option.get ctx.team.active_task).task_mode with
        | Mode.Spmd -> List.init ctx.team.num_workers Fun.id
        | Mode.Generic ->
            let g = geometry ctx.team in
            List.init g.Simd_group.num_groups (fun group ->
                Simd_group.leader_tid g ~group))
      bar;
    Gpusim.Engine.barrier_wait bar ctx.th
  end

let charge ctx cost n =
  if n < 0 then invalid_arg "Team.charge: negative count";
  Gpusim.Thread.tick ctx.th (float_of_int n *. cost)

let charge_flops ctx n =
  charge ctx ctx.team.cfg.Gpusim.Config.cost.Gpusim.Config.flop n

let charge_alu ctx n =
  charge ctx ctx.team.cfg.Gpusim.Config.cost.Gpusim.Config.alu n

let charge_special ctx n =
  charge ctx ctx.team.cfg.Gpusim.Config.cost.Gpusim.Config.special n

(* Charge-only half of [invoke_microtask], so hot callers can charge the
   dispatch and then make a direct call instead of threading a thunk. *)
let charge_microtask ctx ~fn_id =
  let cfg = ctx.team.cfg in
  let cost = cfg.Gpusim.Config.cost in
  let c =
    if fn_id >= 0 && fn_id < ctx.team.dispatch_table_size then
      (* if-cascade: one compare per entry scanned, then a direct call *)
      (float_of_int (fn_id + 1) *. cost.Gpusim.Config.icmp_cascade)
      +. cost.Gpusim.Config.call
    else cost.Gpusim.Config.indirect_call
  in
  Gpusim.Thread.tick ctx.th c;
  ctx.th.Gpusim.Thread.counters.Gpusim.Counters.calls <-
    ctx.th.Gpusim.Thread.counters.Gpusim.Counters.calls + 1

let invoke_microtask ctx ~fn_id run =
  charge_microtask ctx ~fn_id;
  run ()
