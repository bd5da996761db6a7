open Harness
module Errno = Hemlock_os.Errno
module Vfs = Hemlock_os.Vfs
module As = Hemlock_vm.Address_space
module Cpu = Hemlock_isa.Cpu
module Layout = Hemlock_vm.Layout

(* ----- errno table ----- *)

let errno_table () =
  List.iter
    (fun e ->
      check_bool "code round-trips" true (Errno.of_code (Errno.code e) = Some e);
      check_bool "positive code" true (Errno.code e > 0);
      check_bool "name is E-prefixed" true (String.length (Errno.name e) > 1 && (Errno.name e).[0] = 'E'))
    Errno.all;
  check_bool "unknown code" true (Errno.of_code 9999 = None);
  check_string "to_string" "ENOENT: no such file or directory" (Errno.to_string Errno.ENOENT)

(* ----- fd table semantics ----- *)

let with_proc f =
  let k = Kernel.create () in
  run_native k (fun k proc -> f k proc)

let double_close () =
  with_proc (fun k proc ->
      let fd = Kernel.sys_open k proc ~create:true "/tmp/dc" in
      check_bool "first close" true (Kernel.sys_close_r k proc fd = Ok ());
      check_bool "second close is EBADF" true (Kernel.sys_close_r k proc fd = Error Errno.EBADF);
      check_bool "read after close is EBADF" true
        (Kernel.sys_read_r k proc fd 1 = Error Errno.EBADF);
      check_bool "write after close is EBADF" true
        (Kernel.sys_write_r k proc fd (Bytes.of_string "x") = Error Errno.EBADF);
      check_bool "lseek after close is EBADF" true
        (Kernel.sys_lseek_r k proc fd 0 = Error Errno.EBADF))

let lowest_fd_reuse () =
  with_proc (fun k proc ->
      let a = Kernel.sys_open k proc ~create:true "/tmp/a" in
      let b = Kernel.sys_open k proc ~create:true "/tmp/b" in
      let c = Kernel.sys_open k proc ~create:true "/tmp/c" in
      check_int "first fd" 3 a;
      check_int "second fd" 4 b;
      check_int "third fd" 5 c;
      Kernel.sys_close k proc b;
      check_int "hole is refilled" 4 (Kernel.sys_open k proc ~create:true "/tmp/d");
      Kernel.sys_close k proc a;
      Kernel.sys_close k proc c;
      check_int "lowest hole wins" 3 (Kernel.sys_open k proc ~create:true "/tmp/e"))

let emfile_at_cap () =
  with_proc (fun k proc ->
      for i = 0 to Vfs.max_fds - 1 do
        let fd = Kernel.sys_open k proc ~create:true (Printf.sprintf "/tmp/f%d" i) in
        check_int "dense allocation" (3 + i) fd
      done;
      check_bool "table full is EMFILE" true
        (Kernel.sys_open_r k proc ~create:true "/tmp/overflow" = Error Errno.EMFILE);
      Kernel.sys_close k proc 40;
      check_int "one slot frees the table" 40
        (Kernel.sys_open k proc ~create:true "/tmp/overflow"))

let enospc_on_full_slot () =
  with_proc (fun k proc ->
      let fd = Kernel.sys_open k proc ~create:true "/shared/full" in
      ignore (Kernel.sys_lseek k proc fd (Layout.shared_slot_size - 1));
      check_bool "write past the slot end is ENOSPC" true
        (Kernel.sys_write_r k proc fd (Bytes.of_string "xy") = Error Errno.ENOSPC);
      check_int "write inside the slot still fits" 1
        (Kernel.sys_write k proc fd (Bytes.of_string "x")))

(* ----- random fd traffic against a pure oracle ----- *)

(* The oracle models what Vfs + Fs promise: per-path byte contents
   shared by every descriptor on that path, per-descriptor positions,
   lowest-free-fd allocation, and POSIX errno answers. *)
module Oracle = struct
  type t = {
    contents : (string, bytes ref) Hashtbl.t;
    fds : (int, string * int ref) Hashtbl.t;
  }

  let create () = { contents = Hashtbl.create 8; fds = Hashtbl.create 8 }

  let alloc t =
    let rec scan fd =
      if fd >= Vfs.first_fd + Vfs.max_fds then Error Errno.EMFILE
      else if Hashtbl.mem t.fds fd then scan (fd + 1)
      else Ok fd
    in
    scan Vfs.first_fd

  let open_ t path =
    if not (Hashtbl.mem t.contents path) then Hashtbl.add t.contents path (ref Bytes.empty);
    match alloc t with
    | Error _ as e -> e
    | Ok fd ->
      Hashtbl.replace t.fds fd (path, ref 0);
      Ok fd

  let close t fd =
    if Hashtbl.mem t.fds fd then begin
      Hashtbl.remove t.fds fd;
      Ok ()
    end
    else Error Errno.EBADF

  let read t fd len =
    match Hashtbl.find_opt t.fds fd with
    | None -> Error Errno.EBADF
    | Some (path, pos) ->
      let data = !(Hashtbl.find t.contents path) in
      let n = min len (max 0 (Bytes.length data - !pos)) in
      let out = if n = 0 then Bytes.empty else Bytes.sub data !pos n in
      pos := !pos + n;
      Ok out

  let write t fd b =
    match Hashtbl.find_opt t.fds fd with
    | None -> Error Errno.EBADF
    | Some (path, pos) ->
      let len = Bytes.length b in
      (* A zero-length write never extends the file, even past EOF. *)
      if len > 0 then begin
        let data = Hashtbl.find t.contents path in
        let need = !pos + len in
        if Bytes.length !data < need then begin
          let grown = Bytes.make need '\000' in
          Bytes.blit !data 0 grown 0 (Bytes.length !data);
          data := grown
        end;
        Bytes.blit b 0 !data !pos len
      end;
      pos := !pos + len;
      Ok len

  let lseek t fd p =
    if p < 0 then Error Errno.EINVAL
    else
      match Hashtbl.find_opt t.fds fd with
      | None -> Error Errno.EBADF
      | Some (_, pos) ->
        pos := p;
        Ok p
end

type op = Open of string | Close of int | Read of int * int | Write of int * bytes | Seek of int * int

let op_of_triple (tag, a, b) =
  let fd = Vfs.first_fd + (a mod 8) in
  match tag mod 5 with
  | 0 -> Open (Printf.sprintf "/tmp/q%d" (a mod 4))
  | 1 -> Close fd
  | 2 -> Read (fd, b mod 40)
  | 3 -> Write (fd, Bytes.make (b mod 24) (Char.chr (Char.code 'a' + (a mod 26))))
  | _ -> Seek (fd, b - 4)

let show_op = function
  | Open p -> "open " ^ p
  | Close fd -> Printf.sprintf "close %d" fd
  | Read (fd, n) -> Printf.sprintf "read %d %d" fd n
  | Write (fd, b) -> Printf.sprintf "write %d %S" fd (Bytes.to_string b)
  | Seek (fd, p) -> Printf.sprintf "lseek %d %d" fd p

let ops_gen =
  QCheck2.Gen.(
    list_size (int_bound 60)
      (map op_of_triple (triple (int_bound 4) (int_bound 1000) (int_bound 1000))))

let fd_traffic_matches_oracle =
  prop "random fd traffic matches oracle" ~count:100
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    ops_gen
    (fun ops ->
      with_proc (fun k proc ->
          let o = Oracle.create () in
          let agree = function
            | Open path -> Kernel.sys_open_r k proc ~create:true path = Oracle.open_ o path
            | Close fd -> Kernel.sys_close_r k proc fd = Oracle.close o fd
            | Read (fd, n) -> Kernel.sys_read_r k proc fd n = Oracle.read o fd n
            | Write (fd, b) -> Kernel.sys_write_r k proc fd b = Oracle.write o fd b
            | Seek (fd, p) -> Kernel.sys_lseek_r k proc fd p = Oracle.lseek o fd p
          in
          List.for_all agree ops))

(* ----- ISA-visible errnos: negative v0, process recovers ----- *)

(* Same switch the benchmarks use: run with the TLB on, then off, to
   show errno delivery is cache-independent. *)
let with_caches on f =
  let tlb = !As.caching_default in
  As.caching_default := on;
  Fun.protect ~finally:(fun () -> As.caching_default := tlb) f

let errno_program =
  {|
char buf[4];
int main() {
  int fd;
  int n;
  fd = open("/tmp/nope", 0);
  if (fd == 0 - 2) { print_str("ENOENT"); }
  fd = open("/tmp/f", 1);
  print_str(" fd=");
  print_int(fd);
  n = write(fd, "hi", 2);
  print_str(" w=");
  print_int(n);
  lseek(fd, 0);
  n = read(fd, &buf[0], 2);
  print_str(" r=");
  print_int(n);
  print_str(" ");
  print_str(&buf[0]);
  close(fd);
  print_str(" again=");
  print_int(close(fd));
  return 0;
}
|}

let isa_errno_recovery () =
  let run_once on =
    with_caches on (fun () ->
        run_c_program (boot ()) errno_program)
  in
  let expected = "ENOENT fd=3 w=2 r=2 hi again=-9" in
  check_string "fast path" expected (run_once true);
  check_string "no TLB" expected (run_once false)

let suite =
  [
    test "errno: table round-trips" errno_table;
    test "errno: double close is EBADF" double_close;
    test "errno: lowest free fd is reused" lowest_fd_reuse;
    test "errno: EMFILE at the descriptor cap" emfile_at_cap;
    test "errno: ENOSPC when a shared slot fills" enospc_on_full_slot;
    fd_traffic_matches_oracle;
    test "errno: ISA syscalls report negative v0 and recover" isa_errno_recovery;
  ]
