(* paper-sim: regenerate Fig 9 (E1) and the reduction ablation (E6).

   The timed op is one regeneration of both experiments through
   [Experiments.Fig9.run] and [Experiments.Reduction_ablation.run] on the
   sim-small device at a fixed reduced scale, dedup off.  All of its host
   time goes to the omprt state machines and the gpusim fiber engine,
   memory model and barriers; ompir and serve do no work here, so this
   workload is the no-change check for compiler and control-plane
   changes.

   The experiments do not expose their launches, so the reference pass
   and the traced run replay them: [regenerate] below makes the same
   Workloads launches on the same instances, one call at a time.  The
   reference pass proves the replay faithful — its cycles must equal the
   experiments' rows bit for bit — and verifies every launch's output
   against the kernel's host reference.  The experiments' inputs are
   fixed by the figure; the seed generates held-out instances of the
   same shapes whose outputs are verified too. *)

module Harness = Workloads.Harness
module Spmv = Workloads.Spmv
module Su3 = Workloads.Su3
module Ideal = Workloads.Ideal
module Fig9 = Experiments.Fig9
module E6 = Experiments.Reduction_ablation

let cfg = Gpusim.Config.small
let scale = 0.05
let scaled n = max 1 (int_of_float (float_of_int n *. scale))

(* The paper's peak speed-ups (§6.4): sparse_matvec, su3_bench, ideal. *)
let paper_peaks =
  [ ("sparse_matvec", 3.5); ("su3_bench", 1.3); ("ideal_kernel", 2.15) ]

(* Problem sizes, as Fig9 and Reduction_ablation derive them. *)
let teams = 4 * cfg.Gpusim.Config.num_sms
let lanes = teams * 128
let spmv_teams = 2 * teams

type instances = {
  spmv : Spmv.instance;
  su3 : Su3.instance;
  ideal : Ideal.instance;
  e6 : Spmv.instance;
}

(* [seed = None] gives the experiments' own instances. *)
let instances ?seed () =
  let pick default = Option.value seed ~default in
  let rows = scaled (spmv_teams * 64) in
  let e6_rows = scaled 16384 in
  {
    spmv =
      Spmv.generate
        {
          Spmv.default_shape with
          Spmv.rows;
          cols = rows;
          profile = Spmv.Banded { mean = 24; spread = 16 };
          seed = pick Spmv.default_shape.Spmv.seed;
        };
    su3 =
      Su3.generate
        {
          Su3.sites = scaled (2 * lanes);
          seed = pick Su3.default_shape.Su3.seed;
        };
    ideal =
      Ideal.generate
        {
          Ideal.default_shape with
          Ideal.rows = scaled (lanes / 4);
          seed = pick Ideal.default_shape.Ideal.seed;
        };
    e6 =
      Spmv.generate
        {
          Spmv.default_shape with
          Spmv.rows = e6_rows;
          cols = e6_rows;
          seed = pick Spmv.default_shape.Spmv.seed;
        };
  }

(* One launch of a Workloads kernel: its family names the per-layer
   metric workloads.<family>_ms. *)
type launch = {
  family : string;
  verify : float array -> (unit, string) result;
  run : reset_l2:bool -> Harness.run;
}

let fig9_row kernel group_size baseline_cycles simd_cycles =
  {
    Fig9.kernel;
    group_size;
    baseline_cycles;
    simd_cycles;
    speedup = baseline_cycles /. simd_cycles;
  }

(* The launches of one Fig9 + E6 regeneration, in the experiments'
   order, and the rows they make.  [measure] performs a launch and
   returns its cycles; [warm] is the experiments' average-of-10
   methodology (a cold run that warms the L2, then the measured warm
   run). *)
let regenerate inst ~measure =
  let warm l =
    ignore (measure l ~reset_l2:true : float);
    measure l ~reset_l2:false
  in
  let once l = measure l ~reset_l2:true in
  let gs = Fig9.group_sizes_for cfg in
  let sweep kernel ~base variant =
    let base = base () in
    List.map (fun g -> fig9_row kernel g base (variant g)) gs
  in
  let spmv = inst.spmv in
  let spmv_rows =
    sweep "sparse_matvec"
      ~base:(fun () ->
        warm
          {
            family = "spmv";
            verify = Spmv.verify spmv;
            run =
              (fun ~reset_l2 ->
                let rows = (Spmv.shape_of spmv).Spmv.rows in
                Spmv.run_two_level ~cfg ~reset_l2
                  ~num_teams:(min rows (3 * spmv_teams))
                  ~threads:(max 32 cfg.Gpusim.Config.warp_size) spmv);
          })
      (fun group_size ->
        warm
          {
            family = "spmv";
            verify = Spmv.verify spmv;
            run =
              (fun ~reset_l2 ->
                Spmv.run_simd ~cfg ~reset_l2 ~num_teams:spmv_teams ~threads:128
                  ~mode3:(Harness.generic_simd ~group_size) spmv);
          })
  in
  let su3 group_size =
    once
      {
        family = "su3";
        verify = Su3.verify inst.su3;
        run =
          (fun ~reset_l2 ->
            if group_size = 1 then
              Su3.run_two_level ~cfg ~dedup:false ~num_teams:teams ~threads:128
                inst.su3
            else
              Su3.run ~cfg ~reset_l2 ~dedup:false ~num_teams:teams ~threads:128
                ~mode3:(Harness.spmd_simd ~group_size) inst.su3);
      }
  in
  let su3_rows = sweep "su3_bench" ~base:(fun () -> su3 1) su3 in
  let ideal mode3 =
    warm
      {
        family = "ideal";
        verify = Ideal.verify inst.ideal;
        run =
          (fun ~reset_l2 ->
            Ideal.run ~cfg ~dedup:false ~reset_l2 ~num_teams:teams ~threads:128
              ~mode3 inst.ideal);
      }
  in
  let ideal_rows =
    sweep "ideal_kernel"
      ~base:(fun () -> ideal (Harness.spmd_simd ~group_size:1))
      (fun group_size -> ideal (Harness.generic_simd ~group_size))
  in
  let e6 = inst.e6 in
  let e6_teams = min 128 (Spmv.shape_of e6).Spmv.rows in
  let e6_launch family run =
    once { family; verify = Spmv.verify e6; run }
  in
  let e6_rows =
    List.map
      (fun group_size ->
        let mode3 = Harness.generic_simd ~group_size in
        let atomic =
          e6_launch "spmv" (fun ~reset_l2 ->
              Spmv.run_simd ~cfg ~reset_l2 ~num_teams:e6_teams ~threads:128
                ~mode3 e6)
        in
        let reduction =
          e6_launch "spmv_reduction" (fun ~reset_l2 ->
              Spmv.run_simd_reduction ~cfg ~reset_l2 ~num_teams:e6_teams
                ~threads:128 ~mode3 e6)
        in
        {
          E6.group_size;
          atomic_cycles = atomic;
          reduction_cycles = reduction;
          improvement = atomic /. reduction;
        })
      gs
  in
  ( { Fig9.rows = spmv_rows @ su3_rows @ ideal_rows; group_sizes = gs },
    { E6.rows = e6_rows } )

(* Every number the two experiments report, exactly. *)
let rows_text ((f : Fig9.t), (e : E6.t)) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (r : Fig9.row) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%h,%h,%h\n" r.Fig9.kernel r.Fig9.group_size
           r.Fig9.baseline_cycles r.Fig9.simd_cycles r.Fig9.speedup))
    f.Fig9.rows;
  List.iter
    (fun (r : E6.row) ->
      Buffer.add_string buf
        (Printf.sprintf "e6,%d,%h,%h,%h\n" r.E6.group_size r.E6.atomic_cycles
           r.E6.reduction_cycles r.E6.improvement))
    e.E6.rows;
  Buffer.contents buf

(* The largest relative error of a Fig 9 kernel's peak speed-up. *)
let peak_err (f : Fig9.t) =
  List.fold_left
    (fun acc (kernel, paper) ->
      let best = Fig9.best f ~kernel in
      Float.max acc (abs_float (best.Fig9.speedup -. paper) /. paper))
    0.0 paper_peaks

(* Held-out instances: one launch of every kernel variant on seeded
   data, verified against the host reference.  Returns the failures.
   The offset keeps them apart from the experiments' own seeds. *)
let held_out ~seed =
  let inst = instances ~seed:(100 + seed) () in
  let mode3 = Harness.generic_simd ~group_size:8 in
  [
    ( "spmv two-level",
      Spmv.verify inst.spmv,
      fun () -> Spmv.run_two_level ~cfg ~num_teams:(3 * spmv_teams) inst.spmv );
    ( "spmv simd",
      Spmv.verify inst.spmv,
      fun () ->
        Spmv.run_simd ~cfg ~num_teams:spmv_teams ~threads:128 ~mode3
          inst.spmv );
    ( "spmv reduction",
      Spmv.verify inst.e6,
      fun () ->
        Spmv.run_simd_reduction ~cfg ~num_teams:128 ~threads:128 ~mode3 inst.e6
    );
    ( "su3",
      Su3.verify inst.su3,
      fun () ->
        Su3.run ~cfg ~num_teams:teams ~threads:128
          ~mode3:(Harness.spmd_simd ~group_size:4) inst.su3 );
    ( "ideal",
      Ideal.verify inst.ideal,
      fun () ->
        Ideal.run ~cfg ~num_teams:teams ~threads:128
          ~mode3:(Harness.generic_simd ~group_size:32) inst.ideal );
  ]
  |> List.filter_map (fun (what, verify, run) ->
         match verify (run ()).Harness.output with
         | Ok () -> None
         | Error msg -> Some ("held-out " ^ what ^ ": " ^ msg))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* What the reference pass keeps: the rows as text, every launch's
   output in launch order, the simulated cycles of one regeneration and
   the outputs that failed their check. *)
type reference = {
  text : string;
  outputs : float array array;
  sim_cycles : float;
  errors : string list;
}

let prepare ~seed =
  let inst = instances () in
  let reference =
    lazy
      (let outputs = ref [] and errors = ref (held_out ~seed) in
       let sim_cycles = ref 0.0 in
       let rows =
         regenerate inst ~measure:(fun l ~reset_l2 ->
             let r = l.run ~reset_l2 in
             (match l.verify r.Harness.output with
             | Ok () -> ()
             | Error msg -> errors := (l.family ^ ": " ^ msg) :: !errors);
             outputs := r.Harness.output :: !outputs;
             sim_cycles := !sim_cycles +. Harness.time r;
             Harness.time r)
       in
       List.iter (Printf.eprintf "paper-sim: wrong output: %s\n") !errors;
       {
         text = rows_text rows;
         outputs = Array.of_list (List.rev !outputs);
         sim_cycles = !sim_cycles;
         errors = !errors;
       })
  in
  let outcome ((fig9, _) as rows) =
    let r = Lazy.force reference in
    let text = rows_text rows in
    {
      Workload.attempted = 1;
      failed = (if text = r.text then 0 else 1);
      fingerprint = Workload.md5 text;
      sim_cycles = r.sim_cycles;
      exact = [ ("fig9_peak_err", peak_err fig9) ];
    }
  in
  let call _ =
    let f = Fig9.run ~scale ~dedup:false ~cfg () in
    let e = E6.run ~scale ~cfg () in
    fun () -> outcome (f, e)
  in
  let references () =
    let r = Lazy.force reference in
    (* the traced replay also compares every output bitwise with the
       reference pass's *)
    let layered layers =
      let i = ref 0 and drift = ref false in
      let rows =
        regenerate inst ~measure:(fun l ~reset_l2 ->
            let run =
              Layers.launch layers
                ("workloads." ^ l.family ^ "_ms")
                (fun run -> run.Harness.report)
                (fun () -> l.run ~reset_l2)
            in
            Layers.fold_report layers run.Harness.report;
            if not (same_bits run.Harness.output r.outputs.(!i)) then
              drift := true;
            incr i;
            Harness.time run)
      in
      let o = outcome rows in
      if !drift then { o with Workload.failed = 1 } else o
    in
    {
      Workload.reference_failures = List.length r.errors;
      exact = [];
      layered;
    }
  in
  { Workload.inputs = 1; call; references }

let workload = { Workload.name = "paper-sim"; prepare }
