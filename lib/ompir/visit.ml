module Names = Set.Make (String)

(* --- structure ------------------------------------------------------------ *)

let rec fold f acc body = List.fold_left (fold_stmt f) acc body

and fold_stmt f acc (s : Ir.stmt) =
  let acc = f acc s in
  match s with
  | Ir.If (_, a, b) -> fold f (fold f acc a) b
  | Ir.While (_, b) | Ir.For { body = b; _ } | Ir.Guarded b -> fold f acc b
  | Ir.Distribute_parallel_for d | Ir.Parallel_for d | Ir.Simd d
  | Ir.Simd_sum { dir = d; _ } ->
      fold f acc d.Ir.body
  | Ir.Decl _ | Ir.Assign _ | Ir.Store _ | Ir.Store_int _ | Ir.Atomic_add _
  | Ir.Sync ->
      acc

let exists p body =
  let exception Found in
  try
    fold (fun () s -> if p s then raise Found) () body;
    false
  with Found -> true

let rec fold_expr f acc (e : Ir.expr) =
  let acc = f acc e in
  match e with
  | Ir.Int_lit _ | Ir.Float_lit _ | Ir.Var _ -> acc
  | Ir.Binop (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Ir.Unop (_, a) | Ir.Load (_, a) | Ir.Load_int (_, a) -> fold_expr f acc a

let fold_exprs f acc body =
  let ex = fold_expr f in
  fold
    (fun acc (s : Ir.stmt) ->
      match s with
      | Ir.Decl { init = e; _ } | Ir.Assign (_, e) | Ir.If (e, _, _)
      | Ir.While (e, _) ->
          ex acc e
      | Ir.Store (_, i, v) | Ir.Store_int (_, i, v) | Ir.Atomic_add (_, i, v) ->
          ex (ex acc i) v
      | Ir.For { lo; hi; _ } -> ex (ex acc lo) hi
      | Ir.Distribute_parallel_for d | Ir.Parallel_for d | Ir.Simd d ->
          ex (ex acc d.Ir.lo) d.Ir.hi
      | Ir.Simd_sum { value; dir = d; _ } -> ex (ex (ex acc d.Ir.lo) d.Ir.hi) value
      | Ir.Guarded _ | Ir.Sync -> acc)
    acc body

let map ~body ~expr (s : Ir.stmt) : Ir.stmt =
  let dir (d : Ir.loop_directive) =
    { d with Ir.lo = expr d.Ir.lo; hi = expr d.Ir.hi; body = body d.Ir.body }
  in
  match s with
  | Ir.Decl d -> Ir.Decl { d with init = expr d.init }
  | Ir.Assign (n, e) -> Ir.Assign (n, expr e)
  | Ir.Store (a, i, v) -> Ir.Store (a, expr i, expr v)
  | Ir.Store_int (a, i, v) -> Ir.Store_int (a, expr i, expr v)
  | Ir.Atomic_add (a, i, v) -> Ir.Atomic_add (a, expr i, expr v)
  | Ir.If (c, a, b) -> Ir.If (expr c, body a, body b)
  | Ir.While (c, b) -> Ir.While (expr c, body b)
  | Ir.For l -> Ir.For { l with lo = expr l.lo; hi = expr l.hi; body = body l.body }
  | Ir.Distribute_parallel_for d -> Ir.Distribute_parallel_for (dir d)
  | Ir.Parallel_for d -> Ir.Parallel_for (dir d)
  | Ir.Simd d -> Ir.Simd (dir d)
  | Ir.Simd_sum r -> Ir.Simd_sum { r with value = expr r.value; dir = dir r.dir }
  | Ir.Guarded b -> Ir.Guarded (body b)
  | Ir.Sync -> Ir.Sync

type loop = { var : string; lo : Ir.expr; hi : Ir.expr; body : Ir.stmt list }

let loop (s : Ir.stmt) =
  match s with
  | Ir.For { var; lo; hi; body } -> Some { var; lo; hi; body }
  | Ir.Distribute_parallel_for d | Ir.Parallel_for d | Ir.Simd d
  | Ir.Simd_sum { dir = d; _ } ->
      Some { var = d.Ir.loop_var; lo = d.Ir.lo; hi = d.Ir.hi; body = d.Ir.body }
  | _ -> None

let rec declared body =
  List.fold_left
    (fun acc (s : Ir.stmt) ->
      match s with
      | Ir.Decl { name; _ } -> Names.add name acc
      | Ir.Guarded b -> Names.union acc (declared b)
      | _ -> acc)
    Names.empty body

(* --- scope ---------------------------------------------------------------- *)

type 'env scope = {
  bind : 'env -> string -> 'env * string;
  read : 'env -> string -> Ir.expr;
  write : 'env -> string -> string;
}

let scoped sc env body =
  let rec expr env (e : Ir.expr) =
    match e with
    | Ir.Var n -> sc.read env n
    | Ir.Int_lit _ | Ir.Float_lit _ -> e
    | Ir.Binop (op, a, b) -> Ir.Binop (op, expr env a, expr env b)
    | Ir.Unop (op, a) -> Ir.Unop (op, expr env a)
    | Ir.Load (arr, i) -> Ir.Load (arr, expr env i)
    | Ir.Load_int (arr, i) -> Ir.Load_int (arr, expr env i)
  (* a statement list, each statement in the scope of the declarations
     before it; also returns the environment at its end *)
  and block env body =
    let env, rev =
      List.fold_left
        (fun (env, rev) s ->
          let env, s = stmt env s in
          (env, s :: rev))
        (env, []) body
    in
    (env, List.rev rev)
  and scope env body = snd (block env body)
  and directive env (d : Ir.loop_directive) =
    let lo = expr env d.Ir.lo and hi = expr env d.Ir.hi in
    let inner, loop_var = sc.bind env d.Ir.loop_var in
    let at_end, body = block inner d.Ir.body in
    ({ d with Ir.loop_var; lo; hi; body }, at_end)
  and stmt env (s : Ir.stmt) =
    match s with
    | Ir.Decl { name; ty; init } ->
        let init = expr env init in
        let env, name = sc.bind env name in
        (env, Ir.Decl { name; ty; init })
    | Ir.Assign (n, e) ->
        let e = expr env e in
        (env, Ir.Assign (sc.write env n, e))
    | Ir.Store (a, i, v) -> (env, Ir.Store (a, expr env i, expr env v))
    | Ir.Store_int (a, i, v) -> (env, Ir.Store_int (a, expr env i, expr env v))
    | Ir.Atomic_add (a, i, v) -> (env, Ir.Atomic_add (a, expr env i, expr env v))
    | Ir.If (c, a, b) -> (env, Ir.If (expr env c, scope env a, scope env b))
    | Ir.While (c, b) -> (env, Ir.While (expr env c, scope env b))
    | Ir.For { var; lo; hi; body } ->
        let lo = expr env lo and hi = expr env hi in
        let inner, var = sc.bind env var in
        (env, Ir.For { var; lo; hi; body = scope inner body })
    | Ir.Distribute_parallel_for d ->
        (env, Ir.Distribute_parallel_for (fst (directive env d)))
    | Ir.Parallel_for d -> (env, Ir.Parallel_for (fst (directive env d)))
    | Ir.Simd d -> (env, Ir.Simd (fst (directive env d)))
    | Ir.Simd_sum { acc; value; dir } ->
        let acc = sc.write env acc in
        let dir, at_end = directive env dir in
        (env, Ir.Simd_sum { acc; value = expr at_end value; dir })
    | Ir.Guarded b ->
        let env, b = block env b in
        (env, Ir.Guarded b)
    | Ir.Sync -> (env, s)
  in
  scope env body

(* Free scalars through the walker; arrays are never bound, so every
   array name is free. *)
let free ~reads body =
  let found = ref Names.empty in
  let note bound n =
    if not (Names.mem n bound) then found := Names.add n !found
  in
  let (_ : Ir.stmt list) =
    scoped
      {
        bind = (fun bound n -> (Names.add n bound, n));
        read =
          (fun bound n ->
            if reads then note bound n;
            Ir.Var n);
        write =
          (fun bound n ->
            note bound n;
            n);
      }
      Names.empty body
  in
  !found

let free_writes body = free ~reads:false body

let free_names body =
  let arrays =
    fold
      (fun acc (s : Ir.stmt) ->
        match s with
        | Ir.Store (a, _, _) | Ir.Store_int (a, _, _) | Ir.Atomic_add (a, _, _) ->
            Names.add a acc
        | _ -> acc)
      (fold_exprs
         (fun acc (e : Ir.expr) ->
           match e with
           | Ir.Load (a, _) | Ir.Load_int (a, _) -> Names.add a acc
           | _ -> acc)
         Names.empty body)
      body
  in
  Names.union arrays (free ~reads:true body)

module Smap = Map.Make (String)

let rename f body =
  (* the environment maps a renamed binder's old name to its new one;
     any other binder of that name shadows it *)
  let bind env n =
    match f n with
    | Some n' -> (Smap.add n n' env, n')
    | None -> (Smap.remove n env, n)
  in
  let lookup env n = Option.value (Smap.find_opt n env) ~default:n in
  scoped
    {
      bind;
      read = (fun env n -> Ir.Var (lookup env n));
      write = lookup;
    }
    Smap.empty body

let subst ~var ~by body =
  (* the environment is whether [var] is still free here *)
  scoped
    {
      bind = (fun free n -> (free && not (String.equal n var), n));
      read = (fun free n -> if free && String.equal n var then by else Ir.Var n);
      write = (fun _ n -> n);
    }
    true body
