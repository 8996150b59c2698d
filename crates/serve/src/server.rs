//! Accept loop, bounded worker pool, graceful drain.
//!
//! The listener runs non-blocking and is polled against the shared
//! shutdown flag. Accepted connections go through an mpsc channel to a
//! fixed pool of long-lived worker threads — the only place relpat answers
//! questions concurrently. On shutdown the accept loop stops taking connections, drops
//! the channel sender, and the workers drain whatever was already
//! accepted before exiting — in-flight requests always complete. The
//! journal is flushed last so the drain itself is on the flight record.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use relpat_obs::{counter, global_journal, jevent, Level};

use crate::app::App;
use crate::http::{read_request, ReadError, Response};

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Per-connection read timeout — a stalled client cannot block drain
    /// forever.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8);
        ServerConfig { workers, read_timeout: Duration::from_secs(30) }
    }
}

/// A running server; join it to wait for drain.
pub struct Server {
    addr: SocketAddr,
    accept: JoinHandle<()>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the shutdown flag without waiting.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Blocks until the accept loop has exited and every worker has
    /// drained its queue.
    pub fn join(self) {
        let _ = self.accept.join();
    }
}

/// Spawns the accept loop and worker pool on an already-bound listener.
pub fn spawn(listener: TcpListener, app: Arc<App>, config: ServerConfig) -> std::io::Result<Server> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shutdown = app.shutdown_flag();

    let (tx, rx) = channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|i| {
            let rx = Arc::clone(&rx);
            let app = Arc::clone(&app);
            let timeout = config.read_timeout;
            thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&rx, &app, timeout))
                .expect("spawn worker")
        })
        .collect();

    let accept_shutdown = Arc::clone(&shutdown);
    let accept = thread::Builder::new()
        .name("serve-accept".to_string())
        .spawn(move || {
            while !accept_shutdown.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        counter!("serve.http.accepted");
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => thread::sleep(ACCEPT_POLL),
                }
            }
            // Stop feeding the pool; workers exit once the queue is dry.
            drop(tx);
            for worker in workers {
                let _ = worker.join();
            }
            jevent!(Level::Info, "serve.drained");
            global_journal().flush();
        })
        .expect("spawn accept loop");

    Ok(Server { addr, accept, shutdown })
}

fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, app: &App, timeout: Duration) {
    loop {
        let stream = {
            let guard = rx.lock().expect("connection queue lock");
            guard.recv()
        };
        match stream {
            Ok(stream) => handle_connection(stream, app, timeout),
            Err(_) => break, // sender dropped: drain complete
        }
    }
}

fn handle_connection(stream: TcpStream, app: &App, timeout: Duration) {
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let mut reader = BufReader::new(stream);
    let response = match read_request(&mut reader) {
        Ok(req) => match catch_unwind(AssertUnwindSafe(|| app.handle(&req))) {
            Ok(resp) => resp,
            Err(_) => {
                counter!("serve.http.panics");
                jevent!(Level::Error, "serve.panic", "path" => req.path);
                Response::error(500, "internal error")
            }
        },
        Err(ReadError::Eof) => return,
        Err(ReadError::Io(_)) => return,
        Err(ReadError::Bad(msg)) => {
            counter!("serve.http.errors");
            Response::error(400, msg)
        }
    };
    let mut stream = reader.into_inner();
    let _ = response.write_to(&mut stream);
    let _ = stream.flush();
}
