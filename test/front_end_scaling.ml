(* Runtest tier guarding the IR front end against quadratic scopes.

   A [chain] kernel puts every declaration in one frame, so a scope that
   scans its frame costs O(n^2) over the kernel while a map costs
   O(n log n).  This builds chains of 512 and 4096 links and requires 8x
   the links to cost under 24x the time (linear work gives ~8, O(n log n)
   a little more, a quadratic scope ~64) for [Check.kernel],
   [Offload.compile] and the staged engine's compile.  It runs in its own
   process so the heap other tests leave behind does not tax the large
   size's major-GC slices more than the small one's. *)

module Ir = Ompir.Ir
module Memory = Gpusim.Memory
module Offload = Openmp.Offload

(* The serve [chain] template's shape at any length ({!Serve.Request}
   caps it at 1024): [links] declarations in one frame, each reading the
   previous one and a parameter. *)
let chain_kernel links =
  let open Ir in
  let t l = Printf.sprintf "t%d" l in
  kernel ~name:"chain"
    ~params:
      [
        { pname = "src"; pty = P_farray };
        { pname = "out"; pty = P_farray };
        { pname = "n"; pty = P_int };
      ]
    [
      distribute_parallel_for ~var:"i" ~lo:(i 0) ~hi:(v "n")
        ((Decl { name = t 0; ty = Tfloat; init = Load ("src", v "i") }
         :: List.init links (fun l ->
                Decl
                  {
                    name = t (succ l);
                    ty = Tfloat;
                    init =
                      Unop
                        ( Abs,
                          (v (t l) * f 0.5)
                          + Load ("src", Binop (Mod, v "i" + i (succ l), v "n")) );
                  }))
        @ [ Store ("out", v "i", v (t links)) ]);
    ]

(* each sample starts from a compacted heap and is timed in process CPU
   time, so other processes sharing the host do not skew it *)
let best_of_5 f =
  let best = ref infinity in
  for _ = 1 to 5 do
    Gc.compact ();
    let t0 = Sys.time () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Sys.time () -. t0)
  done;
  !best

let compiled k =
  match Offload.compile ~passes:"default" k with
  | Ok c -> c
  | Error _ -> failwith "front_end_scaling: chain kernel rejected"

(* a zero-trip launch of the staged engine: its compile plus a fixed
   launch cost *)
let stage c () =
  let space = Memory.space () in
  Ompir.Compile.run ~cfg:Gpusim.Config.small
    ~options:{ Ompir.Eval.default_options with num_teams = 1; num_threads = 32 }
    ~bindings:
      [
        ("src", Ompir.Eval.B_farr (Memory.falloc space 1));
        ("out", Ompir.Eval.B_farr (Memory.falloc space 1));
        ("n", Ompir.Eval.B_int 0);
      ]
    c.Offload.program

let () =
  let small = chain_kernel 512 and large = chain_kernel 4096 in
  let ratio name f =
    let tl = best_of_5 (f large) and ts = best_of_5 (f small) in
    let r = tl /. ts in
    Printf.printf "front-end scaling: %s 4096 links %.2f ms, 512 links %.2f ms, ratio %.1f\n"
      name (1e3 *. tl) (1e3 *. ts) r;
    if not (r < 24.0) then
      failwith
        (Printf.sprintf "front_end_scaling: %s 4096/512 time ratio %.1f >= 24"
           name r)
  in
  ratio "Check.kernel" (fun k () -> Ompir.Check.kernel k);
  ratio "Offload.compile" (fun k () -> compiled k);
  ratio "staged compile" (fun k -> stage (compiled k));
  print_endline "front-end scaling OK"
