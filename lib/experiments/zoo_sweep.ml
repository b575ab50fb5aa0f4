module Table = Ompsimd_util.Table

(* The paper measures on one device shape; the zoo sweep re-runs its
   headline figures on every registry entry and checks the *relative*
   claims — the only ones a calibrated simulator can honestly export:

     C1 (fig9)  the three-level simd version beats the two-level
                baseline at some group size, for every kernel;
     C2 (fig10) generic-mode simd never beats SPMD-mode simd (the state
                machine and its synchronization cost something);
     C3 (E6)    the simd reduction beats the atomic-update workaround.

   A configuration where a claim fails is an *inversion* — reported, not
   hidden: that is the sweep's entire point (cf. the Vortex study, where
   warp-level features flip between hardware and software profitability
   across architectures). *)

type verdict = { claim : string; holds : bool; detail : string }
type row = { device : string; verdicts : verdict list }
type t = { rows : row list }

let claims = [ "fig9 simd>1"; "fig10 gen<=spmd"; "E6 red>atomic" ]

let fig9_verdict ~scale ~run ~cfg =
  let r = Fig9.run ~scale ?run ~cfg () in
  let kernels = [ "sparse_matvec"; "su3_bench"; "ideal_kernel" ] in
  let bests =
    List.map (fun k -> (k, (Fig9.best r ~kernel:k).Fig9.speedup)) kernels
  in
  {
    claim = List.nth claims 0;
    holds = List.for_all (fun (_, s) -> s > 1.0) bests;
    detail =
      String.concat " "
        (List.map (fun (k, s) -> Printf.sprintf "%s=%.2fx" k s) bests);
  }

let fig10_verdict ~scale ~run ~cfg =
  let group_size = min 32 cfg.Gpusim.Config.warp_size in
  let r = Fig10.run ~scale ~group_size ?run ~cfg () in
  let kernels = [ "laplace3d"; "muram_transpose"; "muram_interpol" ] in
  let gaps =
    List.map
      (fun k ->
        let spmd = Fig10.relative r ~kernel:k Fig10.Spmd_simd in
        let gen = Fig10.relative r ~kernel:k Fig10.Generic_simd in
        (k, spmd, gen))
      kernels
  in
  {
    claim = List.nth claims 1;
    holds = List.for_all (fun (_, spmd, gen) -> gen <= spmd) gaps;
    detail =
      String.concat " "
        (List.map
           (fun (k, spmd, gen) -> Printf.sprintf "%s=%.2f/%.2f" k spmd gen)
           gaps);
  }

let e6_verdict ~scale ~run ~cfg =
  let r = Reduction_ablation.run ~scale ?run ~cfg () in
  let best =
    List.fold_left
      (fun acc (row : Reduction_ablation.row) ->
        Float.max acc row.Reduction_ablation.improvement)
      0.0 r.Reduction_ablation.rows
  in
  {
    claim = List.nth claims 2;
    holds = best > 1.0;
    detail = Printf.sprintf "best=%.2fx" best;
  }

let run ?(scale = 1.0) ?run ?entries () =
  let entries =
    match entries with Some e -> e | None -> Gpusim.Zoo.sweep
  in
  let rows =
    List.map
      (fun (e : Gpusim.Zoo.entry) ->
        let cfg = e.Gpusim.Zoo.config in
        {
          device = e.Gpusim.Zoo.name;
          verdicts =
            [
              fig9_verdict ~scale ~run ~cfg;
              fig10_verdict ~scale ~run ~cfg;
              e6_verdict ~scale ~run ~cfg;
            ];
        })
      entries
  in
  { rows }

let inversions t =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun v -> if v.holds then None else Some (r.device, v.claim))
        r.verdicts)
    t.rows

let to_table t =
  let table =
    Table.create
      ~columns:
        (("device", Table.Left)
        :: List.map (fun c -> (c, Table.Left)) claims)
  in
  List.iter
    (fun r ->
      Table.add_row table
        (r.device
        :: List.map
             (fun v ->
               Printf.sprintf "%s %s"
                 (if v.holds then "holds" else "INVERTS")
                 v.detail)
             r.verdicts))
    t.rows;
  table

let to_csv t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "device,claim,holds,detail\n";
  List.iter
    (fun r ->
      List.iter
        (fun v ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%s,%b,%s\n" r.device v.claim v.holds v.detail))
        r.verdicts)
    t.rows;
  Buffer.contents buf

let print t =
  print_endline
    "Device-zoo sweep: the paper's relative claims across architectures";
  Table.print (to_table t);
  match inversions t with
  | [] -> print_endline "all claims hold on every configuration"
  | invs ->
      Printf.printf "%d inversion(s):\n" (List.length invs);
      List.iter
        (fun (d, c) -> Printf.printf "  %-12s inverts %S\n" d c)
        invs
