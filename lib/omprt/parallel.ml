let bump ctx key =
  Gpusim.Counters.bump ctx.Team.th.Gpusim.Thread.counters key 1.0

let in_outlined_body ctx f =
  let team = ctx.Team.team in
  let tid = ctx.Team.th.Gpusim.Thread.tid in
  team.Team.in_region.(tid) <- true;
  (* hand-rolled protect: this wraps every outlined-region call, and the
     Fun.protect it replaced allocated its finally closure per call *)
  match f () with
  | v ->
      team.Team.in_region.(tid) <- false;
      v
  | exception e ->
      team.Team.in_region.(tid) <- false;
      raise e

(* Region code in SPMD mode is executed redundantly by every lane of a
   SIMD group on behalf of one OpenMP thread; attribute those accesses
   to the group leader so the sanitizer sees one logical lane. *)
let with_region_actor ctx f =
  if Gpusim.Thread.sanitize ctx.Team.th then begin
    let th = ctx.Team.th in
    let g = Team.geometry ctx.Team.team in
    let group = Simd_group.get_simd_group g ~tid:th.Gpusim.Thread.tid in
    let prev = Gpusim.Ompsan.set_actor th (Simd_group.leader_tid g ~group) in
    match f () with
    | v ->
        ignore (Gpusim.Ompsan.set_actor th prev);
        v
    | exception e ->
        ignore (Gpusim.Ompsan.set_actor th prev);
        raise e
  end
  else f ()

let exec_on_thread ctx (task : Team.parallel_task) =
  let team = ctx.Team.team in
  let tid = ctx.Team.th.Gpusim.Thread.tid in
  match task.Team.task_mode with
  | Mode.Spmd ->
      (* All threads execute the region in SPMD mode.  This is the
         region-dispatch hot path, so the bookkeeping is hand-inlined:
         the wrapper-combinator shape (in_outlined_body / with_region_actor
         / invoke_microtask thunks) allocated three closures per region
         call. *)
      team.Team.in_region.(tid) <- true;
      (match
         with_region_actor ctx (fun () ->
             Team.charge_microtask ctx ~fn_id:task.Team.fn_id;
             task.Team.fn ctx task.Team.payload)
       with
      | () -> team.Team.in_region.(tid) <- false
      | exception e ->
          team.Team.in_region.(tid) <- false;
          raise e)
  | Mode.Generic ->
      let g = Team.geometry team in
      if Simd_group.is_simd_group_leader g ~tid then begin
        (* Only simd mains execute the region in generic mode; one active
           lane per [group_size] still costs a full warp's issue slots. *)
        Gpusim.Thread.trace ctx.Team.th ~tag:"parallel.leader" "";
        (* A generic-mode leader acts alone for its group; undo any
           enclosing SPMD attribution so distinct leaders stay distinct
           actors. *)
        let prev =
          if Gpusim.Thread.sanitize ctx.Team.th then
            Gpusim.Ompsan.set_actor ctx.Team.th tid
          else tid
        in
        (match
           in_outlined_body ctx (fun () ->
               Gpusim.Thread.with_simt_factor ctx.Team.th
                 (float_of_int task.Team.group_size) (fun () ->
                   Team.invoke_microtask ctx ~fn_id:task.Team.fn_id
                     (fun () -> task.Team.fn ctx task.Team.payload)))
         with
        | () ->
            if Gpusim.Thread.sanitize ctx.Team.th then
              ignore (Gpusim.Ompsan.set_actor ctx.Team.th prev)
        | exception e ->
            if Gpusim.Thread.sanitize ctx.Team.th then
              ignore (Gpusim.Ompsan.set_actor ctx.Team.th prev);
            raise e);
        (* Send the termination signal to the simd workers. *)
        Simd.signal_termination ctx
      end
      else
        (* Simd workers enter the state machine. *)
        Simd.state_machine ctx

let effective_task team ~mode ~simd_len ~payload ~fn_id fn =
  let cfg = team.Team.cfg in
  let ws = cfg.Gpusim.Config.warp_size in
  (* §5.4.1: no warp barrier at all means generic-mode groups cannot
     rendezvous; degrade to singleton groups (sequential simd loops).  A
     software-emulated barrier keeps generic mode functional — just
     costlier per rendezvous. *)
  let simd_len =
    if
      Mode.equal mode Mode.Generic
      && cfg.Gpusim.Config.barrier_impl = Gpusim.Config.No_barrier
    then 1
    else simd_len
  in
  if simd_len <= 0 || simd_len > ws || ws mod simd_len <> 0 then
    invalid_arg "Parallel.parallel: simd_len must divide the warp size";
  if team.Team.num_workers mod simd_len <> 0 then
    invalid_arg "Parallel.parallel: simd_len must divide the worker count";
  (* §5.4: without simd groups (size one) the region always runs SPMD. *)
  let task_mode = if simd_len = 1 then Mode.Spmd else mode in
  {
    Team.fn;
    fn_id;
    payload;
    task_mode;
    group_size = simd_len;
    payload_location = Sharing.none;
  }

let enter_region ctx task =
  let team = ctx.Team.team in
  let geom =
    Simd_group.make
      ~warp_size:team.Team.cfg.Gpusim.Config.warp_size
      ~num_workers:team.Team.num_workers ~group_size:task.Team.group_size
  in
  team.Team.active_geometry <- Some geom;
  team.Team.active_task <- Some task;
  (* SIMD mains only consume sharing-space slices in generic mode; an
     SPMD region's payloads stay thread-local (§5.4). *)
  let sharing_groups =
    match task.Team.task_mode with
    | Mode.Generic -> geom.Simd_group.num_groups
    | Mode.Spmd -> 0
  in
  Sharing.configure team.Team.sharing ~num_groups:sharing_groups

let leave_region team =
  team.Team.active_geometry <- None;
  team.Team.active_task <- None

let parallel ctx ~mode ~simd_len ?(payload = Payload.empty) ?(fn_id = -1) fn =
  let team = ctx.Team.team in
  let tid = ctx.Team.th.Gpusim.Thread.tid in
  if tid < team.Team.num_workers && team.Team.in_region.(tid) then
    failwith
      "Parallel.parallel: nested parallel regions are not supported on the \
       device (LLVM serializes them); restructure the kernel or inline the \
       nested body";
  let task = effective_task team ~mode ~simd_len ~payload ~fn_id fn in
  match Team.role team ~tid with
  | Team.Team_main ->
      (* Teams-generic: signal the workers, wait for them to finish. *)
      bump ctx "parallel.regions";
      if Gpusim.Thread.tracing ctx.Team.th then
        Gpusim.Thread.trace ctx.Team.th ~tag:"parallel.signal"
          (Printf.sprintf "fn=%d mode=%s gs=%d" task.Team.fn_id
             (Mode.to_string task.Team.task_mode)
             task.Team.group_size);
      enter_region ctx task;
      Payload.pack ctx.Team.th payload;
      let location =
        Sharing.acquire team.Team.sharing ctx.Team.th
          ~bytes:(Payload.bytes payload)
      in
      Sharing.publish team.Team.sharing ctx.Team.th location payload;
      task.Team.payload_location <- location;
      team.Team.parallel_signal <- Some task;
      Team.team_barrier_wait ctx;
      (* workers execute the region here *)
      Team.team_barrier_wait ctx;
      (* past the closing barrier every worker has fetched: the region's
         slice can go back to the allocator *)
      Sharing.release team.Team.sharing location;
      team.Team.parallel_signal <- None;
      leave_region team
  | Team.Worker ->
      (* Teams-SPMD: every thread reaches the same __parallel call. *)
      if tid = 0 then bump ctx "parallel.regions";
      (* Every thread re-enters redundantly (same values); the state is
         left in place after the closing barrier because a slower sibling
         may still be returning while a faster one has already opened the
         next region — clearing here would race with its enter. *)
      enter_region ctx task;
      Payload.pack ctx.Team.th payload;
      exec_on_thread ctx task;
      Team.team_barrier_wait ctx
  | Team.Inactive_main_lane ->
      failwith "Parallel.parallel: inactive main-warp lane reached __parallel"
