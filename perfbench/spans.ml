type span = { name : string; parent : int; start : float; stop : float }

type t = {
  now : unit -> float;
  mutable spans : span array;
  mutable len : int;
}

let create ~now = { now; spans = [||]; len = 0 }

let add t ?(parent = -1) name ~start ~stop =
  if t.len = Array.length t.spans then begin
    let grown =
      Array.make (max 16 (2 * t.len)) { name; parent; start; stop }
    in
    Array.blit t.spans 0 grown 0 t.len;
    t.spans <- grown
  end;
  t.spans.(t.len) <- { name; parent; start; stop };
  t.len <- t.len + 1;
  t.len - 1

(* The id is reserved before [f] runs so children can name it as their
   parent; the stop time is patched in afterwards. *)
let record t ?parent name f =
  let start = t.now () in
  let id = add t ?parent name ~start ~stop:start in
  let v = f id in
  t.spans.(id) <- { (t.spans.(id)) with stop = t.now () };
  (v, id)

let duration t id =
  let s = t.spans.(id) in
  s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let rec go acc cur = function
    | [] -> (
      match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
      | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None sorted

type layer = { name : string; count : int; total : float; self : float }

let layers t =
  let children = Array.make t.len [] in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then
      children.(s.parent) <- (s.start, s.stop) :: children.(s.parent)
  done;
  let by_name = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let dur = s.stop -. s.start in
    let self = dur -. covered ~lo:s.start ~hi:s.stop children.(i) in
    let count, total, self_sum =
      Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name)
    in
    Hashtbl.replace by_name s.name (count + 1, total +. dur, self_sum +. self)
  done;
  Hashtbl.fold
    (fun name (count, total, self) acc -> { name; count; total; self } :: acc)
    by_name []
  |> List.sort (fun a b -> compare a.name b.name)
