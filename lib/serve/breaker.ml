(* Per-key closed/open/probing breakers of one shard.  See breaker.mli. *)

type state = Closed | Open of float | Probing
type cell = { mutable consecutive : int; mutable state : state }

type t = {
  threshold : int;
  cooldown : float;
  cells : (string, cell) Hashtbl.t;
  mutable opens : int;
  mutable forwarded : int;
}

let create ~threshold ~cooldown =
  { threshold; cooldown; cells = Hashtbl.create 16; opens = 0; forwarded = 0 }

let cell t key =
  match Hashtbl.find_opt t.cells key with
  | Some b -> b
  | None ->
      let b = { consecutive = 0; state = Closed } in
      Hashtbl.add t.cells key b;
      b

let admit t key ~now =
  if t.threshold = 0 then `Admit
  else
    let b = cell t key in
    match b.state with
    | Closed -> `Admit
    | Probing -> `Shed
    | Open opened_at ->
        if now >= opened_at +. t.cooldown then begin
          b.state <- Probing;
          `Probe
        end
        else `Shed

let ok t key =
  if t.threshold > 0 then begin
    let b = cell t key in
    b.consecutive <- 0;
    b.state <- Closed
  end

let fail t key ~now =
  if t.threshold > 0 then begin
    let b = cell t key in
    b.consecutive <- b.consecutive + 1;
    let trip () =
      b.state <- Open now;
      t.opens <- t.opens + 1
    in
    match b.state with
    | Probing -> trip ()
    | Closed when b.consecutive >= t.threshold -> trip ()
    | Closed | Open _ -> ()
  end

let opens t = t.opens
let forwarded t = t.forwarded

let open_now t =
  Hashtbl.fold
    (fun _ b n -> match b.state with Closed -> n | Open _ | Probing -> n + 1)
    t.cells 0

(* Per-entry mutation plus a count: iteration order cannot matter. *)
let fast_forward t ~at =
  let moved = ref 0 in
  Hashtbl.iter
    (fun _ b ->
      match b.state with
      | Open opened_at when opened_at +. t.cooldown > at ->
          b.state <- Open (at -. t.cooldown -. 1.0);
          incr moved
      | Open _ | Closed | Probing -> ())
    t.cells;
  t.forwarded <- t.forwarded + !moved;
  !moved
