open Hpl_core
open Hpl_sim

type params = {
  n : int;
  broadcasts_per_process : int;
  period : float;
  seed : int64;
}

let default = { n = 4; broadcasts_per_process = 5; period = 4.0; seed = 13L }

let bcast_tag = "cb"
let tick_timer = "cb-tick"

(* payload: cb:<sender>:<vc_0>,...,<vc_{n-1}> — sender's vector clock at
   broadcast time, including this broadcast *)
let encode sender vc = Wire.enc bcast_tag (sender :: Array.to_list vc)

let decode n payload =
  match Wire.dec payload with
  | Some (tag, sender :: rest)
    when String.equal tag bcast_tag && List.length rest = n ->
      Some (sender, Array.of_list rest)
  | _ -> None

type pending = { from : int; vc : int array }

type state = {
  params : params;
  me : int;
  vc : int array;  (** delivered-broadcast counts per origin *)
  buffer : pending list;
  delivery_log : pending list;  (** in delivery order, newest first *)
  sent_count : int;
  buffered_arrivals : int;
}

type outcome = {
  trace : Trace.t;
  delivered_total : int;
  buffered_arrivals : int;
  causal_delivery_ok : bool;
  all_delivered : bool;
  messages : int;
}

let deliverable st (p : pending) =
  (* from j with vector v: v.(j) = st.vc.(j) + 1 and v.(k) <= st.vc.(k) *)
  p.vc.(p.from) = st.vc.(p.from) + 1
  && List.for_all
       (fun k -> k = p.from || p.vc.(k) <= st.vc.(k))
       (List.init st.params.n (fun i -> i))

let rec drain st actions =
  match List.find_opt (deliverable st) st.buffer with
  | None -> (st, List.rev actions)
  | Some p ->
      st.vc.(p.from) <- st.vc.(p.from) + 1;
      let st =
        {
          st with
          buffer = List.filter (fun q -> q != p) st.buffer;
          delivery_log = p :: st.delivery_log;
        }
      in
      drain st (Engine.Log_internal (Printf.sprintf "dlv:%d:%d" p.from p.vc.(p.from)) :: actions)

let init params p =
  let me = Pid.to_int p in
  let st =
    {
      params;
      me;
      vc = Array.make params.n 0;
      buffer = [];
      delivery_log = [];
      sent_count = 0;
      buffered_arrivals = 0;
    }
  in
  (st, [ Engine.Set_timer (params.period *. float_of_int (me + 1), tick_timer) ])

let on_message st ~self:_ ~src:_ ~payload ~now:_ =
  match decode st.params.n payload with
  | None -> (st, [])
  | Some (sender, vc) ->
      let p = { from = sender; vc } in
      let immediately = deliverable st p in
      let st =
        {
          st with
          buffer = p :: st.buffer;
          buffered_arrivals =
            (st.buffered_arrivals + if immediately then 0 else 1);
        }
      in
      drain st []

let on_timer st ~self ~tag ~now:_ =
  if String.equal tag tick_timer && st.sent_count < st.params.broadcasts_per_process
  then begin
    (* broadcasting counts as delivering to yourself *)
    st.vc.(st.me) <- st.vc.(st.me) + 1;
    let stamp = Array.copy st.vc in
    let st = { st with sent_count = st.sent_count + 1 } in
    let targets =
      List.filter (fun i -> i <> Pid.to_int self) (List.init st.params.n (fun i -> i))
    in
    ( st,
      List.map (fun i -> Engine.Send (Pid.of_int i, encode st.me stamp)) targets
      @ [ Engine.Set_timer (st.params.period, tick_timer) ] )
  end
  else (st, [])

let vc_lt a b =
  let leq x y =
    Array.for_all2 ( <= ) x y
  in
  leq a b && not (leq b a)

let run ?config params =
  let config =
    match config with
    | Some c -> { c with Engine.n = params.n }
    | None -> { Engine.default with Engine.n = params.n; seed = params.seed }
  in
  let result =
    Engine.run config { Engine.init = init params; on_message; on_timer }
  in
  let states = result.Engine.states in
  let delivered_total =
    Array.fold_left (fun acc (st : state) -> acc + List.length st.delivery_log) 0 states
  in
  let causal_delivery_ok =
    Array.for_all
      (fun (st : state) ->
        let log = List.rev st.delivery_log in
        (* if broadcast a causally precedes broadcast b (vc_a < vc_b),
           a must be delivered before b *)
        let rec pairs_ok : pending list -> bool = function
          | [] -> true
          | a :: rest ->
              List.for_all (fun (b : pending) -> not (vc_lt b.vc a.vc)) rest
              && pairs_ok rest
        in
        pairs_ok log)
      states
  in
  let expected = params.broadcasts_per_process * (params.n - 1) * params.n in
  {
    trace = result.Engine.trace;
    delivered_total;
    buffered_arrivals =
      Array.fold_left (fun acc (st : state) -> acc + st.buffered_arrivals) 0 states;
    causal_delivery_ok;
    all_delivered = delivered_total = expected;
    messages = result.Engine.stats.Engine.sent;
  }

(* -- registry ----------------------------------------------------------- *)

(* knowledge-view spec: the causal triangle — p0 posts m1 to p1 then m2
   to p2; p1 relays m1 to p2. Whether p2 sees the relay before m2 is
   exactly the causal-delivery question *)
let triangle_spec =
  let p0 = Pid.of_int 0 and p1 = Pid.of_int 1 and p2 = Pid.of_int 2 in
  Spec.make ~n:3 (fun p history ->
      if Pid.equal p p0 then
        match Protocol.sends history with
        | 0 -> [ Spec.Send_to (p1, "m1") ]
        | 1 -> [ Spec.Send_to (p2, "m2") ]
        | _ -> []
      else if Pid.equal p p1 then
        if Protocol.recvs_of history "m1" > 0 && Protocol.sends history = 0 then
          [ Spec.Send_to (p2, "relay") ]
        else [ Spec.Recv_any ]
      else [ Spec.Recv_any ])

let relay_first =
  Prop.local (Pid.of_int 2) "relayfirst" (fun h ->
      match List.filter Event.is_receive h with
      | e :: _ -> (
          match Event.message e with
          | Some m -> String.equal m.Msg.payload "relay"
          | None -> false)
      | [] -> false)

let protocol =
  Protocol.make ~name:"causal-broadcast"
    ~doc:"the causal triangle: does the relay beat the later direct send?"
    ~atoms:(fun _ ->
      [
        ("relayfirst", relay_first);
        ("sawrelay", Protocol.received_prop "sawrelay" (Pid.of_int 2) "relay");
        ("sawdirect", Protocol.received_prop "sawdirect" (Pid.of_int 2) "m2");
      ])
    ~suggested_depth:6
    (fun _ -> triangle_spec)
