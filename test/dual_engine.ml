(* Runtest tier for the OMPSIMD_EVAL switch: drive small kernels
   end-to-end through the compile-and-offload pipeline under both
   evaluator engines — the reference tree walker and the staged
   compiler — selected exactly the way a user selects them
   (OMPSIMD_EVAL, through the settings parser into the offload knobs
   the compiled artifact records), and require bit-identical results.
   This covers the offload.ml dispatch itself, which the in-process
   differential tests bypass by calling the engines directly. *)

module Ir = Ompir.Ir
module Eval = Ompir.Eval
module Memory = Gpusim.Memory
module Offload = Openmp.Offload
module Clause = Openmp.Clause

(* out[r] = sum_j src[r*len + j] *)
let rowsum_kernel =
  Ir.kernel ~name:"rowsum"
    ~params:
      [
        { Ir.pname = "src"; pty = Ir.P_farray };
        { Ir.pname = "out"; pty = Ir.P_farray };
        { Ir.pname = "rows"; pty = Ir.P_int };
        { Ir.pname = "len"; pty = Ir.P_int };
      ]
    [
      Ir.distribute_parallel_for ~var:"r" ~lo:(Ir.i 0) ~hi:(Ir.v "rows")
        [
          Ir.Decl { name = "acc"; ty = Ir.Tfloat; init = Ir.f 0.0 };
          Ir.simd_sum ~acc:"acc" ~var:"j" ~lo:(Ir.i 0) ~hi:(Ir.v "len")
            ~value:
              Ir.(Load ("src", Binop (Add, Binop (Mul, v "r", v "len"), v "j")))
            [];
          Ir.Store ("out", Ir.v "r", Ir.v "acc");
        ];
    ]

(* Nested shadowing across the parallel, For, If and simd frames, with
   two guarded blocks whose declarations, and the declarations after
   them, land in the guards' persistent frames.  Every sequential write
   is region-local and the store sits in a trip-1 simd, so the region
   stays SPMD and the guards take the broadcast path. *)
let shadow_kernel =
  let open Ir in
  let decl name ty init = Decl { name; ty; init } in
  kernel ~name:"shadow"
    ~params:
      [
        { pname = "src"; pty = P_farray };
        { pname = "out"; pty = P_farray };
        { pname = "rows"; pty = P_int };
        { pname = "len"; pty = P_int };
      ]
    [
      distribute_parallel_for ~var:"r" ~lo:(i 0) ~hi:(v "rows")
        [
          decl "x" Tint (v "r" * i 2);
          decl "y" Tfloat (Load ("src", v "r"));
          decl "acc" Tfloat (f 0.0);
          For
            {
              var = "k";
              lo = i 0;
              hi = i 3;
              body =
                [
                  decl "x" Tfloat (Unop (To_float, v "k") + v "y");
                  If
                    ( v "k" < i 2,
                      [
                        decl "x" Tfloat (v "x" * f 2.0);
                        Assign ("acc", v "acc" + v "x");
                      ],
                      [ Assign ("acc", v "acc" - v "x") ] );
                  Assign ("acc", v "acc" + v "x");
                ];
            };
          Guarded [ decl "g" Tfloat (v "acc" * f 0.5); decl "h" Tint (v "x" + i 1) ];
          decl "z" Tfloat (v "g" + Unop (To_float, v "h"));
          Guarded [ decl "q" Tfloat (v "z" + f 1.0) ];
          decl "p" Tfloat (v "q" * v "g");
          decl "acc2" Tfloat (f 0.0);
          (* the summand reads only region names; [summand_decl_kernel]
             covers a summand over a body declaration *)
          simd_sum ~acc:"acc2" ~var:"j" ~lo:(i 0) ~hi:(v "len")
            ~value:(Load ("src", (v "r" * v "len") + v "j") * v "p")
            [
              decl "x" Tfloat (Load ("src", (v "r" * v "len") + v "j"));
              decl "t" Tfloat (v "x" * v "p");
            ];
          simd ~var:"j" ~lo:(i 0) ~hi:(i 1)
            [
              Store
                ( "out",
                  v "r",
                  v "acc" + v "z" + v "acc2" + v "p" + Unop (To_float, v "x") );
            ];
        ];
    ]

(* out[r] = sum_j 2 * src[r*len + j], the summand reading a declaration
   of the reduction body: it is evaluated in the body's scope, so the
   name is neither free in the region nor captured by its outlining *)
let summand_decl_kernel =
  let open Ir in
  kernel ~name:"summand_decl"
    ~params:
      [
        { pname = "src"; pty = P_farray };
        { pname = "out"; pty = P_farray };
        { pname = "rows"; pty = P_int };
        { pname = "len"; pty = P_int };
      ]
    [
      distribute_parallel_for ~var:"r" ~lo:(i 0) ~hi:(v "rows")
        [
          Decl { name = "acc"; ty = Tfloat; init = f 0.0 };
          simd_sum ~acc:"acc" ~var:"j" ~lo:(i 0) ~hi:(v "len")
            ~value:(v "t" * f 2.0)
            [
              Decl
                {
                  name = "t";
                  ty = Tfloat;
                  init = Load ("src", (v "r" * v "len") + v "j");
                };
            ];
          Store ("out", v "r", v "acc");
        ];
    ]

(* host reference for [shadow_kernel], row by row *)
let shadow_expected ~src ~len r =
  let x = r * 2 in
  let y = src.(r) in
  let acc = ref 0.0 in
  for k = 0 to 2 do
    let xk = float_of_int k +. y in
    if k < 2 then acc := !acc +. (xk *. 2.0) else acc := !acc -. xk;
    acc := !acc +. xk
  done;
  let g = !acc *. 0.5 in
  let z = g +. float_of_int (x + 1) in
  let p = (z +. 1.0) *. g in
  let acc2 = ref 0.0 in
  for j = 0 to len - 1 do
    acc2 := !acc2 +. (src.((r * len) + j) *. p)
  done;
  !acc +. z +. !acc2 +. p +. float_of_int x

let rows = 96
let len = 20
let src_val i = float_of_int (i mod 11) *. 0.25
let src_host = Array.init (rows * len) src_val

let run_with_engine ~kernel ~passes engine =
  let knobs =
    (Settings.of_lookup (fun k ->
         if k = "OMPSIMD_EVAL" then Some engine else None))
      .Settings.knobs
  in
  let cfg = Gpusim.Config.small in
  let space = Memory.space () in
  let src = Memory.of_float_array space src_host in
  let out = Memory.falloc space rows in
  let bindings =
    [
      ("src", Eval.B_farr src);
      ("out", Eval.B_farr out);
      ("rows", Eval.B_int rows);
      ("len", Eval.B_int len);
    ]
  in
  match Offload.compile_with ~knobs:{ knobs with Offload.passes } kernel with
  | Error es ->
      failwith
        (Printf.sprintf "dual_engine: %s failed to compile: %s" kernel.Ir.kname
           (String.concat "; "
              (List.map (Format.asprintf "%a" Ompir.Check.pp_error) es)))
  | Ok compiled ->
      let report =
        Offload.run ~cfg
          ~clauses:Clause.(none |> num_threads 64 |> simdlen 4)
          ~bindings compiled
      in
      let result = Array.init rows (fun r -> Memory.host_get out r) in
      (report, result)

(* run [kernel] under both engines, require bit-identical reports and
   outputs, and return the outputs *)
let dual ~kernel ~passes =
  let fail what =
    failwith
      (Printf.sprintf "dual_engine: %s (passes %S): %s differ between engines"
         kernel.Ir.kname passes what)
  in
  let walk_report, walk_out = run_with_engine ~kernel ~passes "walk" in
  let staged_report, staged_out = run_with_engine ~kernel ~passes "compile" in
  if walk_out <> staged_out then fail "output arrays";
  if
    walk_report.Gpusim.Device.time_cycles
    <> staged_report.Gpusim.Device.time_cycles
  then fail "time_cycles";
  if
    not
      (Gpusim.Counters.equal walk_report.Gpusim.Device.counters
         staged_report.Gpusim.Device.counters)
  then fail "counters";
  walk_out

(* [tol want] bounds |got - want| for each row *)
let check_rows name ~tol expected got =
  Array.iteri
    (fun r got ->
      let want = expected r in
      if Float.abs (got -. want) > tol want then
        failwith (Printf.sprintf "dual_engine: wrong %s at row %d" name r))
    got

let () =
  (* sanity: the kernels actually computed what they claim *)
  check_rows "row sum"
    ~tol:(fun _ -> 1e-9)
    (fun r ->
      let expected = ref 0.0 in
      for j = 0 to len - 1 do
        expected := !expected +. src_val ((r * len) + j)
      done;
      !expected)
    (dual ~kernel:rowsum_kernel ~passes:"");
  List.iter
    (fun passes ->
      check_rows "shadowed value"
        ~tol:(fun want -> 1e-9 *. Float.max 1.0 (Float.abs want))
        (shadow_expected ~src:src_host ~len)
        (dual ~kernel:shadow_kernel ~passes))
    [ "none"; "" ];
  List.iter
    (fun passes ->
      check_rows "summand over a body declaration"
        ~tol:(fun _ -> 1e-9)
        (fun r ->
          let expected = ref 0.0 in
          for j = 0 to len - 1 do
            expected := !expected +. (src_val ((r * len) + j) *. 2.0)
          done;
          !expected)
        (dual ~kernel:summand_decl_kernel ~passes))
    [ "none"; "" ];
  print_endline
    "dual-engine OK: walk and compile engines bit-identical end-to-end"
