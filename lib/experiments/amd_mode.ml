module Table = Ompsimd_util.Table
module Config = Gpusim.Config
module Harness = Workloads.Harness
module Spmv = Workloads.Spmv
module Ideal = Workloads.Ideal

type row = {
  kernel : string;
  device : string;
  mode : string;
  group_size : int;
  speedup : float;
}

type t = { rows : row list }

let scaled scale n = max 1 (int_of_float (float_of_int n *. scale))

let spmv_rows ?run ~scale cfg =
  let shape =
    {
      Spmv.default_shape with
      Spmv.rows = scaled scale 8192;
      cols = scaled scale 8192;
    }
  in
  let t = Spmv.generate shape in
  let num_teams = min 256 shape.Spmv.rows in
  let baseline =
    Harness.time (Spmv.run_two_level ~cfg ?run ~num_teams ~threads:32 t)
  in
  List.map
    (fun (mode_name, mk) ->
      let r =
        Spmv.run_simd ~cfg ?run ~num_teams:(num_teams / 2) ~threads:128
          ~mode3:(mk ~group_size:8) t
      in
      {
        kernel = "sparse_matvec";
        device = cfg.Config.name;
        mode = mode_name;
        group_size = 8;
        speedup = baseline /. Harness.time r;
      })
    [ ("generic-SIMD", Harness.generic_simd); ("SPMD-SIMD", Harness.spmd_simd) ]

let ideal_rows ?run ~scale cfg =
  let t =
    Ideal.generate { Ideal.default_shape with Ideal.rows = scaled scale 8192 }
  in
  let num_teams = scaled scale 128 in
  let baseline =
    Harness.time (Ideal.run_two_level ~cfg ?run ~num_teams ~threads:128 t)
  in
  List.map
    (fun (mode_name, mk) ->
      let r =
        Ideal.run ~cfg ?run ~num_teams ~threads:128 ~mode3:(mk ~group_size:32) t
      in
      {
        kernel = "ideal_kernel";
        device = cfg.Config.name;
        mode = mode_name;
        group_size = 32;
        speedup = baseline /. Harness.time r;
      })
    [ ("generic-SIMD", Harness.generic_simd); ("SPMD-SIMD", Harness.spmd_simd) ]

let run ?(scale = 1.0) ?run () =
  let rows =
    List.concat_map
      (fun cfg -> spmv_rows ?run ~scale cfg @ ideal_rows ?run ~scale cfg)
      [ Config.a100; Config.amd_like ]
  in
  { rows }

let to_table t =
  let table =
    Table.create
      ~columns:
        [
          ("kernel", Table.Left);
          ("device", Table.Left);
          ("mode", Table.Left);
          ("group", Table.Right);
          ("speedup vs own baseline", Table.Right);
        ]
  in
  let last = ref "" in
  List.iter
    (fun r ->
      if !last <> "" && !last <> r.device then Table.add_separator table;
      last := r.device;
      Table.add_row table
        [
          r.kernel;
          r.device;
          r.mode;
          Table.cell_int r.group_size;
          Table.cell_float r.speedup ^ "x";
        ])
    t.rows;
  table

let print t =
  print_endline
    "E5: AMD degradation — generic-SIMD sequentializes without wavefront \
     barriers, SPMD-SIMD survives";
  Table.print (to_table t)
