module Table = Ompsimd_util.Table
module Mode = Omprt.Mode
module Harness = Workloads.Harness
module Su3 = Workloads.Su3

type row = {
  teams_mode : string;
  block_threads : int;
  resident_blocks : int;
  cycles : float;
  relative : float;
}

type t = { rows : row list }

let scaled scale n = max 1 (int_of_float (float_of_int n *. scale))

let run ?(scale = 1.0) ?run ~cfg () =
  let t = Su3.generate { Su3.sites = scaled scale 16384; seed = 2 } in
  let num_teams = scaled scale 128 in
  let threads = 128 in
  let run_mode teams_mode =
    Su3.run ~cfg ?run ~num_teams ~threads
      ~mode3:{ Harness.teams_mode; parallel_mode = Mode.Spmd; group_size = 4 }
      t
  in
  let spmd = run_mode Mode.Spmd in
  let generic = run_mode Mode.Generic in
  let base = Harness.time spmd in
  let mk name (r : Harness.run) extra_warp =
    {
      teams_mode = name;
      block_threads = threads + (if extra_warp then cfg.Gpusim.Config.warp_size else 0);
      resident_blocks =
        r.Harness.report.Gpusim.Device.breakdown.Gpusim.Occupancy.resident_blocks;
      cycles = Harness.time r;
      relative = base /. Harness.time r;
    }
  in
  { rows = [ mk "spmd" spmd false; mk "generic" generic true ] }

let to_table t =
  let table =
    Table.create
      ~columns:
        [
          ("teams mode", Table.Left);
          ("block threads", Table.Right);
          ("resident blocks/SM", Table.Right);
          ("cycles", Table.Right);
          ("relative speedup", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.teams_mode;
          Table.cell_int r.block_threads;
          Table.cell_int r.resident_blocks;
          Table.cell_float ~decimals:0 r.cycles;
          Table.cell_float ~decimals:3 r.relative;
        ])
    t.rows;
  table

let print t =
  print_endline
    "E7: teams generic vs SPMD — the extra main warp's occupancy and \
     signalling cost (su3_bench, group size 4)";
  Table.print (to_table t)
