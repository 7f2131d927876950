let sorted xs =
  if xs = [] then invalid_arg "Stats: no samples";
  Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* 1-based nearest rank, computed in integers so p * n / 100 never
   rounds the wrong way *)
let rank ~n p = max 1 (((p * n) + 99) / 100)

let percentile xs p =
  let a = sorted xs in
  a.(rank ~n:(Array.length a) p - 1)

let beyond ~n p = n - rank ~n p
let min_beyond = 10

let tail_percentile ~n =
  let rec down p =
    if p < 50 then None
    else if beyond ~n p >= min_beyond then Some p
    else down (p - 1)
  in
  down 99

type tail = { rank : string; value : float; samples : int; resolved : bool }

let tail xs =
  let n = List.length xs in
  match tail_percentile ~n with
  | Some p ->
    { rank = Printf.sprintf "p%d" p; value = percentile xs p; samples = n;
      resolved = true }
  | None -> { rank = "p50"; value = median xs; samples = n; resolved = false }

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable flagged : bool;
  mutable reasons : string list;  (* newest first *)
}

let tally () = { attempted = 0; failed = 0; flagged = false; reasons = [] }

let note t reason =
  if List.length t.reasons < 20 then t.reasons <- reason :: t.reasons

let fail t reason =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1;
  note t reason

let attempt t op ~check =
  match
    let v = op () in
    (v, check v)
  with
  | exception e -> fail t ("raised " ^ Printexc.to_string e); None
  | v, [] -> t.attempted <- t.attempted + 1; Some v
  | _, broken -> fail t (String.concat "; " broken); None

let flag t reason =
  t.flagged <- true;
  note t reason

let attempted t = t.attempted
let failed t = t.failed

let failed_share t =
  if t.attempted = 0 then invalid_arg "Stats.failed_share: nothing attempted";
  float_of_int t.failed /. float_of_int t.attempted

let correct t = t.failed = 0 && not t.flagged
let reasons t = List.rev t.reasons

let digests_agree = function
  | [] -> Ok ()
  | first :: rest ->
    let rec go i = function
      | [] -> Ok ()
      | d :: tl when d = first -> go (i + 1) tl
      | d :: _ ->
        Error (Printf.sprintf "output %d has digest %s, output 0 has %s" i d first)
    in
    go 1 rest

let same_digest ~what ~expected actual =
  if actual = expected then Ok ()
  else Error (Printf.sprintf "%s: digest %s, expected %s" what actual expected)
