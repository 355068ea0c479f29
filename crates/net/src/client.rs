//! A small blocking client for the wire protocol.
//!
//! Supports both the simple one-shot shape ([`NetClient::call`]) and
//! pipelining ([`NetClient::send`] many ids, then [`NetClient::recv`]
//! each): the server's worker pool may complete requests out of send
//! order, so received frames are parked in a pending map until their id
//! is asked for.

use std::collections::HashMap;
use std::io::{BufReader, Write as _};
use std::net::{TcpStream, ToSocketAddrs};

use giant_apps::serving::ServeRequest;

use crate::wire::{decode_reply, encode_request_frame, read_frame, NetError, Reply, Request};

/// One connection to a `giant-net` server.
pub struct NetClient {
    stream: TcpStream,
    /// A clone of `stream` read through a buffer: one `read` brings in a
    /// whole reply and every reply queued behind it.
    reader: BufReader<TcpStream>,
    next_id: u64,
    pending: HashMap<u64, Reply>,
}

impl NetClient {
    /// Connects to a server (e.g. `server.local_addr()` or `"host:port"`).
    ///
    /// Nagle's algorithm is turned off: requests are small frames written
    /// whole, and a pipelined request must not wait for the ACK of the one
    /// before it.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            next_id: 1,
            pending: HashMap::new(),
        })
    }

    /// Sends one request without waiting; returns the id to [`recv`](Self::recv) on.
    pub fn send(&mut self, req: &Request) -> Result<u64, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = encode_request_frame(id, req)?;
        self.stream.write_all(&frame)?;
        Ok(id)
    }

    /// Blocks until the reply for `id` arrives. Replies to other
    /// in-flight ids received meanwhile are parked, not dropped.
    pub fn recv(&mut self, id: u64) -> Result<Reply, NetError> {
        if let Some(reply) = self.pending.remove(&id) {
            return Ok(reply);
        }
        loop {
            let (got_id, payload) = read_frame(&mut self.reader)?;
            let reply = decode_reply(&payload)?;
            // A Reply::Bad precedes a server-side close; surface it for
            // whichever id is being waited on.
            if let Reply::Bad { reason } = &reply {
                return Err(NetError::Rejected {
                    reason: reason.clone(),
                });
            }
            if got_id == id {
                return Ok(reply);
            }
            self.pending.insert(got_id, reply);
        }
    }

    /// One-shot: send a request and wait for its reply.
    pub fn call(&mut self, req: &Request) -> Result<Reply, NetError> {
        let id = self.send(req)?;
        self.recv(id)
    }

    /// Convenience for the common case of a serving request.
    pub fn serve(&mut self, req: ServeRequest) -> Result<Reply, NetError> {
        self.call(&Request::Serve(req))
    }

    /// Fetches the server's stats snapshot.
    pub fn stats(&mut self) -> Result<crate::stats::StatsReport, NetError> {
        match self.call(&Request::Stats)? {
            Reply::Stats(report) => Ok(report),
            other => Err(NetError::Rejected {
                reason: format!("expected a stats reply, got {other:?}"),
            }),
        }
    }

    /// Fetches the server's unified metrics snapshot (`net.*` rows plus
    /// every registered `giant-obs` metric in its process).
    pub fn metrics(&mut self) -> Result<giant_obs::MetricsSnapshot, NetError> {
        match self.call(&Request::Metrics)? {
            Reply::Metrics(snap) => Ok(snap),
            other => Err(NetError::Rejected {
                reason: format!("expected a metrics reply, got {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn client_sockets_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = NetClient::connect(listener.local_addr().expect("addr")).expect("connect");
        assert!(client.stream.nodelay().expect("nodelay"));
    }
}
