(* A shard's queue: best-first dispatch and weighted-fair admission.
   See admission.mli. *)

type pending = {
  spec : Request.spec;
  attempts : int;
  launches : int;
  ckey : string;
  bkey : string;
  mkey : string;
  okey : string;
  stolen : bool;
  relaunched : bool;
  ir : Ompir.Ir.kernel option;
}

(* [queue] is push-front, so the first entry from the head is the
   newest *)
type t = {
  weight : string -> int;
  mutable queue : pending list;
  mutable len : int;
  mutable peak : int;
}

let create ~weight = { weight; queue = []; len = 0; peak = 0 }
let length t = t.len
let peak t = t.peak
let tenant (p : pending) = p.spec.Request.tenant

let better (a : pending) (b : pending) =
  let x = a.spec and y = b.spec in
  x.Request.priority > y.Request.priority
  || x.Request.priority = y.Request.priority
     && (x.Request.at < y.Request.at
        || (x.Request.at = y.Request.at && x.Request.id < y.Request.id))

let expired (p : pending) now =
  match p.spec.Request.deadline with Some d -> now >= d | None -> false

let push t ~through p =
  t.queue <- p :: t.queue;
  t.len <- t.len + 1;
  if not through then t.peak <- max t.peak t.len

let pop t =
  match t.queue with
  | [] -> None
  | first :: rest ->
      let best =
        List.fold_left (fun best p -> if better p best then p else best) first rest
      in
      t.queue <- List.filter (fun p -> p != best) t.queue;
      t.len <- t.len - 1;
      Some best

let mates t (leader : pending) ~now ~max =
  if max <= 0 then []
  else begin
    let compatible, rest =
      List.partition
        (fun (p : pending) -> p.bkey = leader.bkey && not (expired p now))
        t.queue
    in
    let ordered = List.sort (fun a b -> if better a b then -1 else 1) compatible in
    let mates = List.filteri (fun i _ -> i < max) ordered in
    let overflow = List.filteri (fun i _ -> i >= max) ordered in
    t.queue <- overflow @ rest;
    t.len <- t.len - List.length mates;
    mates
  end

let occupancy qs =
  let occ = Hashtbl.create 8 in
  List.iter
    (fun q ->
      List.iter
        (fun p ->
          let n = Option.value ~default:0 (Hashtbl.find_opt occ (tenant p)) in
          Hashtbl.replace occ (tenant p) (n + 1))
        q.queue)
    qs;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) occ [])

(* (tenant, occupancy, weight) of the hog of an occupancy list *)
let hog_of t occ =
  List.fold_left
    (fun best (n, o) ->
      let w = t.weight n in
      match best with
      | Some (bn, bo, bw)
        when not (o * bw > bo * w || (o * bw = bo * w && String.compare n bn > 0))
        ->
          best
      | _ -> Some (n, o, w))
    None occ

let hog t = Option.map (fun (n, _, _) -> n) (hog_of t (occupancy [ t ]))

let over_share t p =
  let occ = occupancy [ t ] in
  match List.assoc_opt (tenant p) occ with
  | None -> false
  | Some o ->
      let total_w = List.fold_left (fun a (n, _) -> a + t.weight n) 0 occ in
      o * total_w > t.weight (tenant p) * t.len

(* the newest non-relaunched entry of [victim] *)
let evict_newest t victim =
  let rec split acc = function
    | [] -> None
    | (p : pending) :: rest ->
        if tenant p = victim && not p.relaunched then begin
          t.queue <- List.rev_append acc rest;
          t.len <- t.len - 1;
          Some p
        end
        else split (p :: acc) rest
  in
  split [] t.queue

let contend t p =
  let occ = occupancy [ t ] in
  match hog_of t occ with
  | None -> `Refuse
  | Some (vn, vo, vw) -> (
      let n_occ = 1 + Option.value ~default:0 (List.assoc_opt (tenant p) occ) in
      if n_occ * vw >= vo * t.weight (tenant p) then `Refuse
      else
        match evict_newest t vn with None -> `Refuse | Some v -> `Evict v)
