type ty = Tint | Tfloat

type binop =
  | Add | Sub | Mul | Div | Mod
  | Min | Max
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type unop = Neg | Not | To_float | To_int | Sqrt | Exp | Log | Abs

type expr =
  | Int_lit of int
  | Float_lit of float
  | Var of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Load of string * expr
  | Load_int of string * expr

type schedule = Sched_static | Sched_chunked of int | Sched_dynamic of int

type stmt =
  | Decl of { name : string; ty : ty; init : expr }
  | Assign of string * expr
  | Store of string * expr * expr
  | Store_int of string * expr * expr
  | Atomic_add of string * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of { var : string; lo : expr; hi : expr; body : stmt list }
  | Distribute_parallel_for of loop_directive
  | Parallel_for of loop_directive
  | Simd of loop_directive
  | Simd_sum of { acc : string; value : expr; dir : loop_directive }
  | Guarded of stmt list
  | Sync

and loop_directive = {
  loop_var : string;
  lo : expr;
  hi : expr;
  body : stmt list;
  fn_id : int;
  sched : schedule;
}

type param_ty = P_farray | P_iarray | P_int | P_float

type param = { pname : string; pty : param_ty }

type kernel = { kname : string; params : param list; body : stmt list }

let kernel ~name ~params body = { kname = name; params; body }

let directive ?(sched = Sched_static) ~var ~lo ~hi body =
  { loop_var = var; lo; hi; body; fn_id = -1; sched }

let simd ~var ~lo ~hi body = Simd (directive ~var ~lo ~hi body)

let simd_sum ~acc ~var ~lo ~hi ~value body =
  Simd_sum { acc; value; dir = directive ~var ~lo ~hi body }

let parallel_for ?sched ~var ~lo ~hi body =
  Parallel_for (directive ?sched ~var ~lo ~hi body)

let distribute_parallel_for ?sched ~var ~lo ~hi body =
  Distribute_parallel_for (directive ?sched ~var ~lo ~hi body)

(* collapse(n): flatten nested rectangular loops into one worksharing
   loop, recovering the source indices by division and modulo — the
   standard lowering. *)
let collapsed_distribute_parallel_for ?sched ~vars body =
  if List.length vars < 2 then
    invalid_arg "Ir.collapsed_distribute_parallel_for: needs >= 2 loops";
  let flat = "__flat" in
  let total =
    List.fold_left
      (fun acc (_, extent) -> Binop (Mul, acc, extent))
      (Int_lit 1) vars
  in
  (* v_i = flat / (prod of inner extents) mod extent_i *)
  let rec decoders rem_vars =
    match rem_vars with
    | [] -> []
    | (var, extent) :: rest ->
        let inner =
          List.fold_left
            (fun acc (_, e) -> Binop (Mul, acc, e))
            (Int_lit 1) rest
        in
        Decl
          {
            name = var;
            ty = Tint;
            init = Binop (Mod, Binop (Div, Var flat, inner), extent);
          }
        :: decoders rest
  in
  Distribute_parallel_for
    (directive ?sched ~var:flat ~lo:(Int_lit 0) ~hi:total
       (decoders vars @ body))

let ( + ) a b = Binop (Add, a, b)
let ( - ) a b = Binop (Sub, a, b)
let ( * ) a b = Binop (Mul, a, b)
let ( / ) a b = Binop (Div, a, b)
let ( < ) a b = Binop (Lt, a, b)
let ( = ) a b = Binop (Eq, a, b)
let i n = Int_lit n
let f x = Float_lit x
let v name = Var name
