type outlined = {
  fn_id : int;
  kind : [ `Simd | `Simd_sum | `Parallel_for | `Distribute_parallel_for ];
  loop_var : string;
  captures : string list;
}

type program = { kernel : Ir.kernel; outlined : outlined list }

(* The loop variable is rebound by the runtime per iteration; everything
   else the directive references must travel in the payload — including
   the variables of the bound expressions, since the outlined task maps
   the normalized iteration number back to the source index, and the
   summand of a reduction.  A reduction's accumulator is assigned by the
   region, not through the payload. *)
let capture_of ~kind ~fn_id (s : Ir.stmt) (d : Ir.loop_directive) =
  let names = Visit.free_names [ s ] in
  let names =
    match s with
    | Ir.Simd_sum { acc; _ } -> Visit.Names.remove acc names
    | _ -> names
  in
  {
    fn_id;
    kind;
    loop_var = d.Ir.loop_var;
    captures = Visit.Names.elements (Visit.Names.remove d.Ir.loop_var names);
  }

let run (k : Ir.kernel) =
  let counter = ref 0 in
  let outlined = ref [] in
  let fresh kind s d =
    let fn_id = !counter in
    incr counter;
    outlined := capture_of ~kind ~fn_id s d :: !outlined;
    fn_id
  in
  (* a directive's id comes before those of the directives in its body *)
  let rec stmts body = List.map stmt body
  and stmt (s : Ir.stmt) =
    let s =
      match s with
      | Ir.Distribute_parallel_for d ->
          let fn_id = fresh `Distribute_parallel_for s d in
          Ir.Distribute_parallel_for { d with Ir.fn_id }
      | Ir.Parallel_for d ->
          Ir.Parallel_for { d with Ir.fn_id = fresh `Parallel_for s d }
      | Ir.Simd d -> Ir.Simd { d with Ir.fn_id = fresh `Simd s d }
      | Ir.Simd_sum r ->
          Ir.Simd_sum
            { r with dir = { r.dir with Ir.fn_id = fresh `Simd_sum s r.dir } }
      | s -> s
    in
    Visit.map ~body:stmts ~expr:Fun.id s
  in
  let body = stmts k.Ir.body in
  { kernel = { k with Ir.body }; outlined = List.rev !outlined }

let dispatch_table_size p = List.length p.outlined

let find p ~fn_id = List.find (fun o -> o.fn_id = fn_id) p.outlined
