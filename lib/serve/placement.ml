(* Consistent-hash placement over shards and device groups, plus the
   content->device affinity table.  See placement.mli. *)

type ring = (int * int) array

let ring_points = 64

let hash_pos s =
  let d = Digest.string s in
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v land max_int

(* [ring_points] vnodes for each of [n] members, labelled by member
   index and vnode number, unsorted *)
let points n label =
  Array.init (n * ring_points) (fun i ->
      let j = i / ring_points and v = i mod ring_points in
      (hash_pos (label j v), j))

let make_ring shards =
  let a = points shards (Printf.sprintf "ompserve-shard-%d-vnode-%d") in
  Array.sort compare a;
  a

let place ring key =
  let h = hash_pos key in
  let n = Array.length ring in
  (* successor point on the ring (clockwise), wrapping at the top *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let pos, _ = ring.(mid) in
    if pos < h then lo := mid + 1 else hi := mid
  done;
  let _, shard = ring.(if !lo = n then 0 else !lo) in
  shard

type t = {
  devs : Gpusim.Config.t array;
  groups : (string * Gpusim.Config.t) list;
      (* distinct device names, sorted, each with its first shard's
         config: decisions key on names, never shard ids *)
  ring : ring;
  rings : (string, ring) Hashtbl.t;  (* group and union rings, by names *)
  labels : string array;
  label_order : int array;
  affinity : bool;
  decay : int;
  window : float;
  aff : (string, (int * float) list ref) Hashtbl.t;
      (* (ckey, device name) -> per-window minima, newest first *)
}

let name (d : Gpusim.Config.t) = d.Gpusim.Config.name

let create ~devices ~affinity ~decay ~window =
  let groups =
    List.sort_uniq String.compare (Array.to_list (Array.map name devices))
    |> List.map (fun dn ->
           (dn, Option.get (Array.find_opt (fun d -> name d = dn) devices)))
  in
  let seen = Hashtbl.create 8 in
  let labels =
    Array.map
      (fun d ->
        let j = Option.value ~default:0 (Hashtbl.find_opt seen (name d)) in
        Hashtbl.replace seen (name d) (j + 1);
        Printf.sprintf "%s/%d" (name d) j)
      devices
  in
  let label_order = Array.init (Array.length devices) Fun.id in
  Array.sort (fun a b -> String.compare labels.(a) labels.(b)) label_order;
  {
    devs = devices;
    groups;
    ring = make_ring (Array.length devices);
    rings = Hashtbl.create 8;
    labels;
    label_order;
    affinity;
    decay;
    window;
    aff = Hashtbl.create 64;
  }

let device t sid = t.devs.(sid)
let labels t = t.labels
let label_order t = t.label_order
let plain t ckey = place t.ring ckey
let same_group t a b = name t.devs.(a) = name t.devs.(b)

(* The member-labelled ring over the union of the named groups, built
   on first use. *)
let ring_for t names =
  let key = String.concat "," names in
  match Hashtbl.find_opt t.rings key with
  | Some r -> r
  | None ->
      let group dn =
        let sids =
          List.filter
            (fun sid -> name t.devs.(sid) = dn)
            (List.init (Array.length t.devs) Fun.id)
          |> Array.of_list
        in
        points (Array.length sids)
          (Printf.sprintf "ompserve-dev-%s-member-%d-vnode-%d" dn)
        |> Array.map (fun (h, j) -> (h, sids.(j)))
      in
      let r = Array.concat (List.map group names) in
      Array.sort compare r;
      Hashtbl.add t.rings key r;
      r

let window_of t now =
  if t.decay = 0 then 0 else int_of_float (now /. t.window)

let live t now l =
  if t.decay = 0 then l
  else
    let cur = window_of t now in
    List.filter (fun (w, _) -> w > cur - t.decay) l

let aff_key ckey dn = ckey ^ "\x00" ^ dn

let observe t ~now ~shard ckey exec =
  let k = aff_key ckey (name t.devs.(shard)) in
  let w = window_of t now in
  let r =
    match Hashtbl.find_opt t.aff k with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add t.aff k r;
        r
  in
  let live = live t now !r in
  r :=
    match List.assoc_opt w live with
    | Some c when c <= exec -> live
    | Some _ -> (w, exec) :: List.remove_assoc w live
    | None -> (w, exec) :: live

let cost t ~now ckey dn =
  match Hashtbl.find_opt t.aff (aff_key ckey dn) with
  | None -> 0.0
  | Some r -> (
      match live t now !r with
      | [] -> 0.0
      | l ->
          r := l;
          List.fold_left (fun acc (_, c) -> Float.min acc c) infinity l)

(* The launch geometry must be a positive multiple of the device's warp
   width within its block limit. *)
let fits (cfg : Gpusim.Config.t) (spec : Request.spec) =
  spec.Request.threads > 0
  && spec.Request.threads mod cfg.Gpusim.Config.warp_size = 0
  && spec.Request.threads <= cfg.Gpusim.Config.max_threads_per_block

let home t ~now ckey (spec : Request.spec) =
  match t.groups with
  | [] | [ _ ] -> place t.ring ckey
  | groups -> (
      let cands =
        match List.filter (fun (_, cfg) -> fits cfg spec) groups with
        | [] -> List.map fst groups
        | fit -> List.map fst fit
      in
      match spec.Request.device with
      | Some dn when List.mem dn cands -> place (ring_for t [ dn ]) ckey
      | _ when not t.affinity -> place (ring_for t cands) ckey
      | _ ->
          let costs = List.map (fun dn -> (dn, cost t ~now ckey dn)) cands in
          let best =
            List.fold_left (fun acc (_, c) -> Float.min acc c) infinity costs
          in
          let tied = List.filter (fun (_, c) -> c = best) costs in
          let dn, _ = List.nth tied (hash_pos ckey mod List.length tied) in
          place (ring_for t [ dn ]) ckey)
